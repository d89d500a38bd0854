package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
)

const valueSize = 64

// keyspace is the working set the generator writes and reads, plus ballast:
// large keys preloaded once so a state transfer moves real bytes. Keys are
// partitioned by session (key i belongs to session i), so each key's ops are
// sequential and its expected value is known exactly: the last acked write,
// or any write sent after it whose outcome is still unknown.
type keyspace struct {
	n           int
	seed        int64
	filler      byte
	ballastKeys int
	ballastSize int

	mu    sync.Mutex
	state []keyState
}

type keyState struct {
	acked   []byte   // value of the last acked write (the preload first)
	pending [][]byte // writes sent since, outcome unknown
}

func newKeyspace(n int, seed int64, ballastBytes, ballastSize int) *keyspace {
	ks := &keyspace{
		n:      n,
		seed:   seed,
		filler: byte('a' + rand.New(rand.NewSource(seed)).Intn(26)),
		state:  make([]keyState, n),
	}
	if ballastBytes > 0 {
		ks.ballastSize = ballastSize
		ks.ballastKeys = ballastBytes / ballastSize
	}
	return ks
}

func (ks *keyspace) key(i int) string        { return fmt.Sprintf("k%05d", i) }
func (ks *keyspace) ballastKey(b int) string { return fmt.Sprintf("ballast%04d", b) }

// pad fills a value to valueSize with the seed's filler byte.
func (ks *keyspace) pad(prefix string) []byte {
	v := bytes.Repeat([]byte{ks.filler}, valueSize)
	copy(v, prefix)
	return v
}

// initial is key i's preloaded value.
func (ks *keyspace) initial(i int) []byte { return ks.pad(fmt.Sprintf("init-%d-%d-", ks.seed, i)) }

// opValue is the value op k writes; unique per op, so a read names its write.
func (ks *keyspace) opValue(k int) []byte { return ks.pad(fmt.Sprintf("op-%d-%d-", ks.seed, k)) }

func (ks *keyspace) ballastValue(b int) []byte {
	v := bytes.Repeat([]byte(fmt.Sprintf("%d.%d|", ks.seed, b)), ks.ballastSize/4)
	return v[:ks.ballastSize]
}

// send records a write about to be sent on key i.
func (ks *keyspace) send(i int, v []byte) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.state[i].pending = append(ks.state[i].pending, v)
}

// ack records that the write of v on key i was acknowledged: every earlier
// write of the key is now overwritten for good, because the session that
// owns the key orders its commands.
func (ks *keyspace) ack(i int, v []byte) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.state[i] = keyState{acked: v}
}

// lastAcked is the value of key i's last acked write.
func (ks *keyspace) lastAcked(i int) []byte {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.state[i].acked
}

// allowed reports whether v is a value key i may hold now.
func (ks *keyspace) allowed(i int, v []byte) bool {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	st := ks.state[i]
	if bytes.Equal(v, st.acked) {
		return true
	}
	for _, p := range st.pending {
		if bytes.Equal(v, p) {
			return true
		}
	}
	return false
}
