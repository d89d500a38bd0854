package paxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// testCluster wires n replicas of one static engine over a simulated network
// and collects every node's delivered decision sequence.
type testCluster struct {
	t      *testing.T
	net    *transport.Network
	cfg    types.Config
	reps   map[types.NodeID]*Replica
	stores map[types.NodeID]*storage.MemStore

	mu        sync.Mutex
	delivered map[types.NodeID][]smr.Decision
	collected sync.WaitGroup
}

func fastOpts(seed int64) Options {
	return Options{
		TickInterval:         time.Millisecond,
		HeartbeatEveryTicks:  2,
		ElectionTimeoutTicks: 10,
		ElectionJitterTicks:  10,
		Seed:                 seed,
		// Engine-level tests observe raw decisions, one per proposed
		// command; batching tests override this explicitly.
		BatchSize: 1,
	}
}

func newTestCluster(t *testing.T, n int, netOpts transport.Options) *testCluster {
	t.Helper()
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(fmt.Sprintf("n%d", i+1))
	}
	cfg := types.MustConfig(1, members...)
	tc := &testCluster{
		t:         t,
		net:       transport.NewNetwork(netOpts),
		cfg:       cfg,
		reps:      make(map[types.NodeID]*Replica, n),
		stores:    make(map[types.NodeID]*storage.MemStore, n),
		delivered: make(map[types.NodeID][]smr.Decision, n),
	}
	for _, id := range members {
		tc.stores[id] = storage.NewMem()
		tc.startReplica(id)
	}
	t.Cleanup(tc.close)
	return tc
}

// startReplica builds and starts the replica for id from its (possibly
// pre-existing) store, and begins collecting its decisions.
func (tc *testCluster) startReplica(id types.NodeID) {
	rep, err := New(tc.cfg, id, tc.net.Endpoint(id), tc.stores[id], uint64(tc.cfg.ID), fastOpts(int64(len(id))))
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.mu.Lock()
	tc.reps[id] = rep
	tc.delivered[id] = nil
	tc.mu.Unlock()
	if err := rep.Start(); err != nil {
		tc.t.Fatal(err)
	}
	tc.collected.Add(1)
	go func() {
		defer tc.collected.Done()
		for d := range rep.Decisions() {
			tc.mu.Lock()
			tc.delivered[id] = append(tc.delivered[id], d)
			tc.mu.Unlock()
		}
	}()
}

func (tc *testCluster) close() {
	tc.mu.Lock()
	reps := make([]*Replica, 0, len(tc.reps))
	for _, r := range tc.reps {
		reps = append(reps, r)
	}
	tc.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
	tc.collected.Wait()
	tc.net.Close()
}

func (tc *testCluster) deliveredAt(id types.NodeID) []smr.Decision {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]smr.Decision, len(tc.delivered[id]))
	copy(out, tc.delivered[id])
	return out
}

// appDelivered returns only the app commands delivered at id, in order.
func (tc *testCluster) appDelivered(id types.NodeID) []types.Command {
	var out []types.Command
	for _, d := range tc.deliveredAt(id) {
		if d.Cmd.Kind == types.CmdApp {
			out = append(out, d.Cmd)
		}
	}
	return out
}

func (tc *testCluster) waitUntil(cond func() bool, what string, timeout time.Duration) {
	tc.t.Helper()
	waitFor(tc.t, what, timeout, cond)
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitForLeader blocks until some live replica believes it is leader.
func (tc *testCluster) waitForLeader(timeout time.Duration) types.NodeID {
	tc.t.Helper()
	var leader types.NodeID
	tc.waitUntil(func() bool {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		for id, r := range tc.reps {
			if _, am := r.Leader(); am {
				leader = id
				return true
			}
		}
		return false
	}, "leader election", timeout)
	return leader
}

// proposeVia submits via a specific replica, retrying while the queue is busy.
func (tc *testCluster) proposeVia(id types.NodeID, cmd types.Command) {
	tc.t.Helper()
	tc.mu.Lock()
	rep := tc.reps[id]
	tc.mu.Unlock()
	for i := 0; i < 100; i++ {
		err := rep.Propose(cmd)
		if err == nil {
			return
		}
		if err == smr.ErrStopped {
			tc.t.Fatalf("propose on stopped replica %s", id)
		}
		time.Sleep(time.Millisecond)
	}
	tc.t.Fatalf("propose via %s kept failing", id)
}

func appCmd(client types.NodeID, seq uint64) types.Command {
	return types.Command{Kind: types.CmdApp, Client: client, Seq: seq, Data: []byte(fmt.Sprintf("op-%s-%d", client, seq))}
}

// checkAgreement asserts that all nodes' delivered sequences are consistent
// prefixes of one another (P1), and no invariant violations were counted.
func (tc *testCluster) checkAgreement() {
	tc.t.Helper()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var ref []smr.Decision
	var refID types.NodeID
	for id, seq := range tc.delivered {
		if len(seq) > len(ref) {
			ref = seq
			refID = id
		}
	}
	for id, seq := range tc.delivered {
		for i, d := range seq {
			if d.Slot != types.Slot(i+1) {
				tc.t.Fatalf("%s: decision %d has slot %d (gap or disorder)", id, i, d.Slot)
			}
			if !d.Cmd.Equal(ref[i].Cmd) {
				tc.t.Fatalf("agreement violated at slot %d: %s=%v %s=%v", d.Slot, id, d.Cmd, refID, ref[i].Cmd)
			}
		}
	}
	for id, r := range tc.reps {
		if v := r.Stats().InvariantViolations; v != 0 {
			tc.t.Fatalf("%s: %d invariant violations", id, v)
		}
	}
}

func TestSingleNodeDecides(t *testing.T) {
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(2 * time.Second)
	for i := 1; i <= 10; i++ {
		tc.proposeVia("n1", appCmd("c1", uint64(i)))
	}
	tc.waitUntil(func() bool { return len(tc.appDelivered("n1")) == 10 }, "10 decisions", 3*time.Second)
	app := tc.appDelivered("n1")
	for i, cmd := range app {
		if cmd.Seq != uint64(i+1) {
			t.Fatalf("order violated: %v at %d", cmd, i)
		}
	}
	tc.checkAgreement()
}

func TestThreeNodeAgreementAllProposers(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{BaseLatency: 200 * time.Microsecond, Jitter: 200 * time.Microsecond, Seed: 1})
	tc.waitForLeader(2 * time.Second)
	const per = 20
	for i := 1; i <= per; i++ {
		for _, n := range []types.NodeID{"n1", "n2", "n3"} {
			tc.proposeVia(n, appCmd(types.NodeID("c-"+string(n)), uint64(i)))
		}
	}
	want := 3 * per
	tc.waitUntil(func() bool {
		for _, n := range []types.NodeID{"n1", "n2", "n3"} {
			if len(tc.appDelivered(n)) < want {
				return false
			}
		}
		return true
	}, "all decisions everywhere", 10*time.Second)
	tc.checkAgreement()
}

func TestFollowerForwardsToLeader(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{BaseLatency: 100 * time.Microsecond})
	leader := tc.waitForLeader(2 * time.Second)
	var follower types.NodeID
	for _, n := range tc.cfg.Members {
		if n != leader {
			follower = n
			break
		}
	}
	tc.proposeVia(follower, appCmd("c9", 1))
	tc.waitUntil(func() bool { return len(tc.appDelivered(leader)) == 1 }, "forwarded decision", 5*time.Second)
	tc.checkAgreement()
}

func TestLeaderFailover(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{BaseLatency: 100 * time.Microsecond})
	leader := tc.waitForLeader(2 * time.Second)
	tc.proposeVia(leader, appCmd("c1", 1))
	tc.waitUntil(func() bool { return len(tc.appDelivered(leader)) == 1 }, "first decision", 5*time.Second)

	// Crash the leader (drop all its traffic both ways).
	tc.net.Isolate(leader)
	var survivor types.NodeID
	tc.waitUntil(func() bool {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		for id, r := range tc.reps {
			if id == leader {
				continue
			}
			if _, am := r.Leader(); am {
				survivor = id
				return true
			}
		}
		return false
	}, "new leader after failover", 5*time.Second)

	tc.proposeVia(survivor, appCmd("c1", 2))
	tc.waitUntil(func() bool { return len(tc.appDelivered(survivor)) >= 2 }, "post-failover decision", 5*time.Second)
	tc.checkAgreement()
}

func TestProgressUnderMessageLoss(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{
		BaseLatency: 100 * time.Microsecond,
		Jitter:      300 * time.Microsecond,
		LossRate:    0.10,
		Seed:        7,
	})
	tc.waitForLeader(5 * time.Second)
	const total = 30
	for i := 1; i <= total; i++ {
		tc.proposeVia("n1", appCmd("c1", uint64(i)))
	}
	// Retransmission must push everything through despite 10% loss. The
	// proposer queue is lossless once accepted by the leader; commands
	// dropped before reaching the leader are re-forwarded by pending.
	tc.waitUntil(func() bool { return len(tc.appDelivered("n1")) >= total }, "all under loss", 20*time.Second)
	tc.checkAgreement()
}

func TestMinorityPartitionStalls(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{BaseLatency: 100 * time.Microsecond})
	leader := tc.waitForLeader(2 * time.Second)

	// Cut the leader off from both followers: it is now a minority.
	others := tc.cfg.Others(leader)
	tc.net.Partition([]types.NodeID{leader}, others)

	tc.proposeVia(leader, appCmd("c1", 1))
	time.Sleep(100 * time.Millisecond)
	if got := len(tc.appDelivered(leader)); got != 0 {
		t.Fatalf("minority decided %d commands", got)
	}

	// Heal; the command must eventually commit (it was queued/pending).
	tc.net.HealAll()
	tc.waitUntil(func() bool {
		for _, n := range tc.cfg.Members {
			if len(tc.appDelivered(n)) >= 1 {
				return true
			}
		}
		return false
	}, "post-heal decision", 10*time.Second)
	tc.checkAgreement()
}

func TestLaggardCatchesUp(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{BaseLatency: 100 * time.Microsecond})
	leader := tc.waitForLeader(2 * time.Second)
	var laggard types.NodeID
	for _, n := range tc.cfg.Members {
		if n != leader {
			laggard = n
			break
		}
	}
	tc.net.Isolate(laggard)
	const total = 25
	for i := 1; i <= total; i++ {
		tc.proposeVia(leader, appCmd("c1", uint64(i)))
	}
	tc.waitUntil(func() bool { return len(tc.appDelivered(leader)) >= total }, "decisions at leader", 10*time.Second)
	if got := len(tc.appDelivered(laggard)); got != 0 {
		t.Fatalf("isolated node received %d decisions", got)
	}
	tc.net.Restore(laggard)
	tc.waitUntil(func() bool { return len(tc.appDelivered(laggard)) >= total }, "laggard catch-up", 10*time.Second)
	tc.checkAgreement()
}

func TestCrashRecoveryKeepsPromisesAndLog(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{BaseLatency: 100 * time.Microsecond})
	leader := tc.waitForLeader(2 * time.Second)
	const total = 10
	for i := 1; i <= total; i++ {
		tc.proposeVia(leader, appCmd("c1", uint64(i)))
	}
	tc.waitUntil(func() bool {
		for _, n := range tc.cfg.Members {
			if len(tc.appDelivered(n)) < total {
				return false
			}
		}
		return true
	}, "decisions everywhere", 10*time.Second)

	// Pick a follower, stop it, restart from the same store.
	var victim types.NodeID
	for _, n := range tc.cfg.Members {
		if n != leader {
			victim = n
			break
		}
	}
	tc.mu.Lock()
	old := tc.reps[victim]
	tc.mu.Unlock()
	old.Stop()

	tc.startReplica(victim) // re-reads the persisted log

	// The restarted replica must redeliver its full decided prefix.
	tc.waitUntil(func() bool { return len(tc.appDelivered(victim)) >= total }, "redelivery after restart", 10*time.Second)
	app := tc.appDelivered(victim)
	for i := 0; i < total; i++ {
		if app[i].Seq != uint64(i+1) {
			t.Fatalf("redelivered order wrong at %d: %v", i, app[i])
		}
	}
	tc.checkAgreement()
}

func TestProposeOnNonMemberRejected(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	_, err := New(cfg, "outsider", net.Endpoint("outsider"), storage.NewMem(), 1, Options{})
	if err == nil {
		t.Fatal("constructing on a non-member must fail")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1")
	r, err := New(cfg, "n1", net.Endpoint("n1"), storage.NewMem(), 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err == nil {
		t.Fatal("second Start must fail")
	}
}

func TestProposeAfterStop(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1")
	r, err := New(cfg, "n1", net.Endpoint("n1"), storage.NewMem(), 1, fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if err := r.Propose(types.NoopCommand()); err != smr.ErrStopped {
		t.Fatalf("got %v, want ErrStopped", err)
	}
	// Decisions channel must be closed.
	if _, ok := <-r.Decisions(); ok {
		t.Fatal("decision channel still open after Stop")
	}
}

func TestStopIsIdempotent(t *testing.T) {
	net := transport.NewNetwork(transport.Options{})
	defer net.Close()
	cfg := types.MustConfig(1, "n1")
	r, _ := New(cfg, "n1", net.Endpoint("n1"), storage.NewMem(), 1, fastOpts(0))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Stop()
}

// TestChaosAgreement drives a 5-node cluster through random leader crashes,
// partitions and 5% message loss, then heals and verifies P1.
func TestChaosAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	tc := newTestCluster(t, 5, transport.Options{
		BaseLatency: 100 * time.Microsecond,
		Jitter:      400 * time.Microsecond,
		LossRate:    0.05,
		Seed:        99,
	})
	tc.waitForLeader(5 * time.Second)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // chaos injector
		defer wg.Done()
		victims := tc.cfg.Members
		i := 0
		for {
			select {
			case <-done:
				return
			case <-time.After(40 * time.Millisecond):
			}
			v := victims[i%len(victims)]
			i++
			tc.net.Isolate(v)
			select {
			case <-done:
				tc.net.Restore(v)
				return
			case <-time.After(30 * time.Millisecond):
			}
			tc.net.Restore(v)
		}
	}()

	const total = 60
	for i := 1; i <= total; i++ {
		n := tc.cfg.Members[i%len(tc.cfg.Members)]
		tc.mu.Lock()
		rep := tc.reps[n]
		tc.mu.Unlock()
		_ = rep.Propose(appCmd("chaos", uint64(i))) // best effort; loss is fine
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	tc.net.HealAll()

	// After healing, everyone must converge to identical prefixes; we
	// don't require all proposals to have survived (clients would retry),
	// only agreement and progress.
	tc.waitUntil(func() bool { return len(tc.appDelivered("n1")) > 0 }, "some progress", 10*time.Second)
	// Give catch-up a moment to equalize, then check consistency.
	time.Sleep(300 * time.Millisecond)
	tc.checkAgreement()
}

func TestStatsCounters(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{})
	leader := tc.waitForLeader(2 * time.Second)
	tc.proposeVia(leader, appCmd("c", 1))
	tc.waitUntil(func() bool { return len(tc.appDelivered(leader)) == 1 }, "decision", 5*time.Second)
	tc.mu.Lock()
	st := tc.reps[leader].Stats()
	tc.mu.Unlock()
	if st.Proposals < 1 || st.Decided < 1 || st.Elections < 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBatchingPacksManyCommandsPerSlot verifies the A1 optimization: with
// BatchSize 16, a burst of commands consumes far fewer slots.
func TestBatchingPacksManyCommandsPerSlot(t *testing.T) {
	net := transport.NewNetwork(transport.Options{BaseLatency: 200 * time.Microsecond})
	defer net.Close()
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	opts := fastOpts(0)
	opts.BatchSize = 16
	reps := make(map[types.NodeID]*Replica, 3)
	for _, id := range cfg.Members {
		r, err := New(cfg, id, net.Endpoint(id), storage.NewMem(), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		reps[id] = r
	}

	// Collect from n1, unpacking batches.
	var mu sync.Mutex
	var apps int
	var maxSlot types.Slot
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range reps["n1"].Decisions() {
			mu.Lock()
			if d.Slot > maxSlot {
				maxSlot = d.Slot
			}
			switch d.Cmd.Kind {
			case types.CmdApp:
				apps++
			case types.CmdBatch:
				subs, err := types.DecodeBatch(d.Cmd.Data)
				if err != nil {
					t.Errorf("corrupt batch: %v", err)
				}
				for _, sub := range subs {
					if sub.Kind == types.CmdApp {
						apps++
					}
				}
			}
			mu.Unlock()
		}
	}()

	// Wait for a leader, then burst 100 commands at it.
	var leader *Replica
	deadline := time.Now().Add(5 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		for _, r := range reps {
			if _, am := r.Leader(); am {
				leader = r
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader")
	}
	const total = 100
	for i := 1; i <= total; i++ {
		for {
			if err := leader.Propose(appCmd("c1", uint64(i))); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got, slots := apps, maxSlot
		mu.Unlock()
		if got >= total {
			if slots >= total {
				t.Fatalf("batching ineffective: %d commands used %d slots", got, slots)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d delivered", got, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProgressWithSlowStorage charges every stable write a real latency
// (models fsync) and checks the engine still commits correctly — just more
// slowly.
func TestProgressWithSlowStorage(t *testing.T) {
	net := transport.NewNetwork(transport.Options{BaseLatency: 100 * time.Microsecond})
	defer net.Close()
	cfg := types.MustConfig(1, "n1", "n2", "n3")
	reps := make([]*Replica, 0, 3)
	var mu sync.Mutex
	counts := map[types.NodeID]int{}
	for _, id := range cfg.Members {
		st := storage.NewMemWithOptions(storage.MemOptions{AutoSync: true, WriteLatency: 200 * time.Microsecond})
		r, err := New(cfg, id, net.Endpoint(id), st, 1, fastOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		reps = append(reps, r)
		id := id
		go func(r *Replica) {
			for d := range r.Decisions() {
				if d.Cmd.Kind == types.CmdApp {
					mu.Lock()
					counts[id]++
					mu.Unlock()
				}
			}
		}(r)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 1; i <= 10; i++ {
		for {
			if err := reps[0].Propose(appCmd("c", uint64(i))); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for {
		mu.Lock()
		done := counts["n1"] >= 10 && counts["n2"] >= 10 && counts["n3"] >= 10
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("slow-storage cluster stuck: %v", counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, r := range reps {
		if r.Stats().InvariantViolations != 0 {
			t.Fatal("violations with slow storage")
		}
	}
}
