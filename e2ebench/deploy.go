package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/reconfig"
	"repro/internal/statemachine"
	"repro/internal/types"
)

const gid types.GroupID = 1

// pool is the five processes: the first three form the initial group and the
// last two are spares the churn workload rotates in.
var pool = []types.NodeID{"n1", "n2", "n3", "n4", "n5"}

// probeTimeout bounds every read of a node's state. A wedged node holds its
// mutex forever, so an unbounded Stats or FirstDecide call would hang the
// benchmark with it. A truncation usually holds the same mutex for up to
// ~2s.
const probeTimeout = 5 * time.Second

// errProbeTimeout reports a probe abandoned after probeTimeout.
var errProbeTimeout = errors.New("probe timed out (node wedged?)")

// probe runs f on its own goroutine and gives up after probeTimeout. An
// abandoned goroutine stays blocked until the process exits.
func probe[T any](f func() T) (T, error) { return probeWithin(probeTimeout, f) }

// probeWithin is probe with its own limit.
func probeWithin[T any](limit time.Duration, f func() T) (T, error) {
	ch := make(chan T, 1)
	go func() { ch <- f() }()
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(limit):
		var zero T
		return zero, errProbeTimeout
	}
}

// deployment is one running system: the group manager hosting the group on
// five processes, one client endpoint with its Directory, and one session per
// key.
type deployment struct {
	gm       *cluster.GroupManager
	dir      *client.Directory
	dataDir  string
	keys     *keyspace
	sessions []*client.Client // sessions[i] owns key i
	locks    []chan struct{}  // locks[i] orders session i's ops (capacity 1)
}

// clientOptions are the client library's defaults plus a retry budget, so a
// clean refusal surfaces as a BudgetError instead of spinning until the
// deadline.
var clientOptions = client.Options{RetryBudget: 12}

// deploy starts the system and preloads it. dataDir must not exist yet.
func deploy(ctx context.Context, dataDir string, ks *keyspace) (*deployment, error) {
	opts := cluster.FastOptions()
	gm := cluster.NewGroupManager(cluster.Config{
		TCP:        true,
		Storage:    "wal",
		StorageDir: dataDir,
		SyncWrites: true,
		Node:       opts,
	})
	d := &deployment{gm: gm, dataDir: dataDir, keys: ks}
	if err := gm.CreateGroup(gid, pool[:3], nil); err != nil {
		d.close()
		return nil, fmt.Errorf("create group: %w", err)
	}
	for _, id := range pool[3:] {
		if _, err := gm.AddGroupReplica(gid, id); err != nil {
			d.close()
			return nil, fmt.Errorf("add spare %s: %w", id, err)
		}
	}
	if err := gm.WaitGroupServing(ctx, gid); err != nil {
		d.close()
		return nil, fmt.Errorf("wait serving: %w", err)
	}
	d.dir = client.NewDirectory(gm.Network().Endpoint("bench-client").Group(uint64(gid)), pool[:3])
	d.sessions = make([]*client.Client, ks.n)
	d.locks = make([]chan struct{}, ks.n)
	for i := range d.sessions {
		d.sessions[i] = d.dir.Session(types.NodeID(fmt.Sprintf("s%d", i)), clientOptions)
		d.locks[i] = make(chan struct{}, 1)
	}
	if err := d.preload(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// preloadWorkers is the closed-loop concurrency of the preload: enough to
// keep the proposer pipeline full.
const preloadWorkers = 64

// preload writes every working key's and ballast key's initial value through
// the owning sessions (ballast through a shared one) and records them as the
// keys' acked values. The ballast goes one 8 KB write at a time: with 64 in
// flight the preload hit Wedge B, the transport deadlock under backpressure,
// in 2 of 20 churn runs.
func (d *deployment) preload(ctx context.Context) error {
	ks := d.keys
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	ballast := d.dir.Session("ballast-loader", clientOptions)
	var ballastMu sync.Mutex
	total := int64(ks.n + ks.ballastKeys)
	for w := 0; w < preloadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total || ctx.Err() != nil {
					return
				}
				var err error
				if i < int64(ks.n) {
					v := ks.initial(int(i))
					_, err = d.sessions[i].Submit(ctx, statemachine.EncodePut(ks.key(int(i)), v))
					if err == nil {
						ks.ack(int(i), v)
					}
				} else {
					b := int(i) - ks.n
					ballastMu.Lock()
					_, err = ballast.Submit(ctx, statemachine.EncodePut(ks.ballastKey(b), ks.ballastValue(b)))
					ballastMu.Unlock()
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("preload key %d: %w", i, err) })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// node returns the group's replica on a process, through a timeout.
func (d *deployment) node(id types.NodeID) (*reconfig.Node, bool) {
	n, err := probe(func() *reconfig.Node { return d.gm.Node(gid, id) })
	return n, err == nil && n != nil
}

// leader returns a current member that believes it leads, or "".
func (d *deployment) leader() types.NodeID {
	for _, id := range pool {
		n, ok := d.node(id)
		if !ok {
			continue
		}
		lead, err := probe(func() bool { return n.Serving() && n.LeaderHint() == id })
		if err == nil && lead {
			return id
		}
	}
	return ""
}

// close tears the deployment down within a bound. It reports false when
// teardown hung (a wedged node never stops). The data stays until the run
// ends, so deleting it does not load the disk during the measured window.
func (d *deployment) close() bool {
	done := make(chan struct{})
	go func() {
		if d.dir != nil {
			d.dir.Close()
		}
		d.gm.Close()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// dataDirFor names the i-th deployment's storage directory of this run.
func dataDirFor(out string, i int) string {
	return filepath.Join(out, "data", fmt.Sprintf("%d-%d", os.Getpid(), i))
}
