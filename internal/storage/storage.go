// Package storage provides per-node stable storage for the replication
// stack: Paxos acceptor state, decided-log entries, configuration-chain
// records and snapshots all live here.
//
// The only implementation is an in-memory store with crash semantics: writes
// go to a dirty buffer and reach "disk" on Sync (or immediately when
// AutoSync is on, the default). Crash discards the dirty buffer, modeling a
// process that dies before fsync. A store survives node restarts — the
// cluster layer keeps it across crash/recover cycles — which is exactly what
// a file on disk would do, without the I/O nondeterminism.
//
// An optional write latency models fsync cost so experiments can charge
// durability realistically.
package storage

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// KV is one key/value pair returned by Scan.
type KV struct {
	Key   string
	Value []byte
}

// Store is the durable key/value interface the protocol layers write to.
// Keys are arbitrary strings; Scan iterates a prefix in sorted key order.
type Store interface {
	// Set durably writes key=value (subject to the sync mode).
	Set(key string, value []byte) error
	// Get returns the value for key and whether it exists.
	Get(key string) ([]byte, bool, error)
	// Delete removes key if present.
	Delete(key string) error
	// Scan returns all pairs whose key starts with prefix, sorted by key.
	Scan(prefix string) ([]KV, error)
	// Sync flushes buffered writes to stable state.
	Sync() error
}

// ErrStoreClosed is returned by operations on a closed store.
var ErrStoreClosed = errors.New("storage: closed")

// BufferedStore is implemented by stores that can stage a write without the
// per-call durability wait, making the next Sync the durability barrier.
// Callers that batch many writes per fsync — the Paxos event loop's group
// commit — probe for it with a type assertion and fall back to plain Set.
type BufferedStore interface {
	Store
	// SetBuffered writes key=value visibly (read-your-writes, like an OS
	// page cache) but possibly non-durably, regardless of the store's sync
	// mode; the write reaches stable state on the next Sync.
	SetBuffered(key string, value []byte) error
	// DeleteBuffered removes key visibly but possibly non-durably, the
	// delete counterpart of SetBuffered: a staged delete costs no fsync of
	// its own and reaches stable state on the next Sync.
	DeleteBuffered(key string) error
}

// MemOptions configures a MemStore.
type MemOptions struct {
	// AutoSync makes every write immediately stable (default behaviour
	// when constructing with NewMem()).
	AutoSync bool
	// WriteLatency is charged on every Set/Delete, modeling device cost.
	WriteLatency time.Duration
	// SyncLatency is charged on every Sync (and every write if AutoSync).
	SyncLatency time.Duration
}

// MemStore is the in-memory Store implementation with crash modeling.
type MemStore struct {
	opts MemOptions

	mu     sync.Mutex
	stable map[string][]byte
	dirty  map[string]*[]byte // nil slot value = pending delete
	closed bool

	writes int64
	syncs  int64
}

var _ BufferedStore = (*MemStore)(nil)

// NewMem returns a store where every write is immediately stable.
func NewMem() *MemStore {
	return NewMemWithOptions(MemOptions{AutoSync: true})
}

// NewMemWithOptions returns a store with explicit options.
func NewMemWithOptions(opts MemOptions) *MemStore {
	return &MemStore{
		opts:   opts,
		stable: make(map[string][]byte),
		dirty:  make(map[string]*[]byte),
	}
}

// Set implements Store.
func (s *MemStore) Set(key string, value []byte) error {
	if s.opts.WriteLatency > 0 {
		time.Sleep(s.opts.WriteLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	s.writes++
	if s.opts.AutoSync {
		s.stable[key] = cp
		s.syncs++
		lat := s.opts.SyncLatency
		if lat > 0 {
			s.mu.Unlock()
			time.Sleep(lat)
			s.mu.Lock()
		}
		return nil
	}
	v := cp
	s.dirty[key] = &v
	return nil
}

// SetBuffered implements BufferedStore: the write is staged in the dirty
// buffer even with AutoSync on, and becomes stable on the next Sync.
func (s *MemStore) SetBuffered(key string, value []byte) error {
	if s.opts.WriteLatency > 0 {
		time.Sleep(s.opts.WriteLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	cp := clone(value)
	s.writes++
	s.dirty[key] = &cp
	return nil
}

// DeleteBuffered implements BufferedStore: the delete is staged in the dirty
// buffer even with AutoSync on, and becomes stable on the next Sync.
func (s *MemStore) DeleteBuffered(key string) error {
	return s.delete(key, false)
}

// Get implements Store. It reads through the dirty buffer so a writer sees
// its own un-synced writes (like an OS page cache).
func (s *MemStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrStoreClosed
	}
	if p, ok := s.dirty[key]; ok {
		if *p == nil {
			return nil, false, nil
		}
		return clone(*p), true, nil
	}
	v, ok := s.stable[key]
	if !ok {
		return nil, false, nil
	}
	return clone(v), true, nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	return s.delete(key, s.opts.AutoSync)
}

// delete removes key: from the stable map at once when stable is set,
// otherwise staged in the dirty buffer until the next Sync.
func (s *MemStore) delete(key string, stable bool) error {
	if s.opts.WriteLatency > 0 {
		time.Sleep(s.opts.WriteLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.writes++
	if stable {
		delete(s.stable, key)
		return nil
	}
	var nilv []byte
	s.dirty[key] = &nilv
	return nil
}

// Scan implements Store.
func (s *MemStore) Scan(prefix string) ([]KV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	merged := make(map[string][]byte)
	for k, v := range s.stable {
		if strings.HasPrefix(k, prefix) {
			merged[k] = v
		}
	}
	for k, p := range s.dirty {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if *p == nil {
			delete(merged, k)
		} else {
			merged[k] = *p
		}
	}
	out := make([]KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: clone(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Sync implements Store: dirty writes become stable.
func (s *MemStore) Sync() error {
	if s.opts.SyncLatency > 0 {
		time.Sleep(s.opts.SyncLatency)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	for k, p := range s.dirty {
		if *p == nil {
			delete(s.stable, k)
		} else {
			s.stable[k] = *p
		}
	}
	s.dirty = make(map[string]*[]byte)
	s.syncs++
	return nil
}

// Crash discards all un-synced writes, modeling a power failure. The store
// remains usable (a restarted process reopens the same "disk").
func (s *MemStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty = make(map[string]*[]byte)
}

// Close marks the store closed; all subsequent operations fail.
func (s *MemStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// Writes returns the number of write operations issued, for cost accounting.
func (s *MemStore) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Syncs returns the number of sync (stable-write) operations performed.
func (s *MemStore) Syncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// Len returns the number of stable keys (dirty buffer excluded).
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stable)
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// slotDigits is the fixed width of a rendered slot number: the decimal
// length of math.MaxUint64.
const slotDigits = 20

// SlotKey renders a log-slot key under prefix with fixed-width zero padding
// so lexicographic order equals numeric order. It runs for every persisted
// and every released slot, so it builds the key in one allocation.
func SlotKey(prefix string, slot uint64) string {
	var digits [slotDigits]byte
	d := strconv.AppendUint(digits[:0], slot, 10)
	var b strings.Builder
	b.Grow(len(prefix) + slotDigits)
	b.WriteString(prefix)
	for i := len(d); i < slotDigits; i++ {
		b.WriteByte('0')
	}
	b.Write(d)
	return b.String()
}
