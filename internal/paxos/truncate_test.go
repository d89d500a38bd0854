package paxos

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestTruncatedSlotRedirect is the end-to-end truncation contract: a member
// cut off while the survivors decide past it and truncate their logs cannot
// replay the released prefix — its catch-up requests come back as a
// checkpoint redirect (CheckpointNeeded latches, delivery stays parked) —
// and a SkipTo at the checkpoint base resumes delivery right above it.
func TestTruncatedSlotRedirect(t *testing.T) {
	tc := newTestCluster(t, 3, transport.Options{})
	lead := tc.waitForLeader(2 * time.Second)
	victim := types.NodeID("n3")
	if lead == victim {
		victim = "n1"
	}
	survivors := make([]types.NodeID, 0, 2)
	for id := range tc.reps {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	tc.net.Isolate(victim)

	const total = 20
	for i := 1; i <= total; i++ {
		tc.proposeVia(lead, appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		for _, id := range survivors {
			if len(tc.appDelivered(id)) < total {
				return false
			}
		}
		return true
	}, "survivors to decide", 10*time.Second)

	// The checkpoint story: state through slot 15 is durable elsewhere, so
	// the survivors release everything at or below it.
	const floor = types.Slot(15)
	for _, id := range survivors {
		tc.reps[id].TruncateBelow(floor)
	}
	tc.waitUntil(func() bool {
		for _, id := range survivors {
			if tc.reps[id].Progress().TruncatedBelow != floor {
				return false
			}
		}
		return true
	}, "survivors to truncate", 5*time.Second)
	for _, id := range survivors {
		st := tc.reps[id].Stats()
		if st.TruncatedSlots < int64(floor) {
			t.Fatalf("%s: truncated %d slots, want >= %d", id, st.TruncatedSlots, floor)
		}
		if st.RetainedSlots > int64(total)+5-int64(floor) {
			t.Fatalf("%s: still retains %d slots after truncating below %d", id, st.RetainedSlots, floor)
		}
	}

	// Heal. The victim's catch-up for slot 1 lands below every survivor's
	// floor: no log replay is possible, only the redirect.
	before := len(tc.appDelivered(victim))
	tc.net.Restore(victim)
	rep := tc.reps[victim]
	tc.waitUntil(func() bool {
		return rep.Progress().CheckpointNeeded
	}, "redirect to latch CheckpointNeeded", 10*time.Second)
	if got := len(tc.appDelivered(victim)); got != before {
		t.Fatalf("victim delivered %d commands across an unfillable gap", got-before)
	}
	if p := rep.Progress(); p.MaxDecidedSeen < types.Slot(total) {
		t.Fatalf("frontier probe: MaxDecidedSeen=%d, want >= %d", p.MaxDecidedSeen, total)
	}

	// "Install the checkpoint" and resume: delivery must restart at floor+1
	// and agree with the survivors above it.
	rep.SkipTo(floor)
	tc.waitUntil(func() bool {
		return rep.Progress().Delivered >= types.Slot(total)
	}, "victim to catch up above the checkpoint", 10*time.Second)
	if p := rep.Progress(); p.CheckpointNeeded {
		t.Fatal("CheckpointNeeded still latched after SkipTo")
	}
	ref := make(map[types.Slot]types.Command)
	for _, d := range tc.deliveredAt(survivors[0]) {
		ref[d.Slot] = d.Cmd
	}
	tail := tc.deliveredAt(victim)[before:]
	if len(tail) == 0 {
		t.Fatal("victim delivered nothing after SkipTo")
	}
	if tail[0].Slot != floor+1 {
		t.Fatalf("delivery resumed at slot %d, want %d", tail[0].Slot, floor+1)
	}
	for i, d := range tail {
		if d.Slot != floor+1+types.Slot(i) {
			t.Fatalf("gap or disorder after SkipTo: position %d has slot %d", i, d.Slot)
		}
		if want, ok := ref[d.Slot]; !ok || !d.Cmd.Equal(want) {
			t.Fatalf("slot %d disagrees with survivor: %v vs %v", d.Slot, d.Cmd, want)
		}
	}
}

// TestTruncationFloorSurvivesRestart: the floor is durable, recovery resumes
// delivery above it instead of resurrecting released slots, and the
// standalone TruncatedFloor helper reads it back without a replica.
func TestTruncationFloorSurvivesRestart(t *testing.T) {
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(2 * time.Second)
	const total = 10
	for i := 1; i <= total; i++ {
		tc.proposeVia("n1", appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		return len(tc.appDelivered("n1")) >= total
	}, "decisions", 5*time.Second)

	const floor = types.Slot(5)
	tc.reps["n1"].TruncateBelow(floor)
	tc.waitUntil(func() bool {
		return tc.reps["n1"].Progress().TruncatedBelow == floor
	}, "truncation", 2*time.Second)
	tc.reps["n1"].Stop()

	got, err := TruncatedFloor(tc.stores["n1"], uint64(tc.cfg.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got != floor {
		t.Fatalf("TruncatedFloor = %d, want %d", got, floor)
	}
	if other, err := TruncatedFloor(tc.stores["n1"], 999); err != nil || other != 0 {
		t.Fatalf("TruncatedFloor of unknown stream = %d, %v; want 0, nil", other, err)
	}

	// Reboot over the same store: the recovered replica redelivers only the
	// retained suffix.
	tc.startReplica("n1")
	tc.waitUntil(func() bool {
		p := tc.reps["n1"].Progress()
		return p.Delivered >= types.Slot(total) && p.TruncatedBelow == floor
	}, "recovery to the retained suffix", 5*time.Second)
	dels := tc.deliveredAt("n1")
	if len(dels) == 0 {
		t.Fatal("nothing redelivered after restart")
	}
	if dels[0].Slot != floor+1 {
		t.Fatalf("redelivery starts at slot %d, want %d", dels[0].Slot, floor+1)
	}
	for i, d := range dels {
		if d.Slot != floor+1+types.Slot(i) {
			t.Fatalf("redelivery gap at position %d: slot %d", i, d.Slot)
		}
	}
}

// TestTruncateBelowClampsToDelivered: the floor never outruns the delivered
// prefix — truncating "everything" releases only what was applied.
func TestTruncateBelowClampsToDelivered(t *testing.T) {
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(2 * time.Second)
	for i := 1; i <= 4; i++ {
		tc.proposeVia("n1", appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		return len(tc.appDelivered("n1")) >= 4
	}, "decisions", 5*time.Second)
	delivered := tc.reps["n1"].Progress().Delivered

	tc.reps["n1"].TruncateBelow(1 << 40)
	tc.waitUntil(func() bool {
		return tc.reps["n1"].Progress().TruncatedBelow > 0
	}, "truncation", 2*time.Second)
	if got := tc.reps["n1"].Progress().TruncatedBelow; got > delivered {
		t.Fatalf("floor %d ran past the delivered prefix %d", got, delivered)
	}
}

// newSoloReplica builds (but does not start) the replica of a one-member
// configuration over store, on a private network.
func newSoloReplica(t *testing.T, store storage.Store) *Replica {
	t.Helper()
	net := transport.NewNetwork(transport.Options{})
	t.Cleanup(net.Close)
	r, err := New(types.MustConfig(1, "n1"), "n1", net.Endpoint("n1"), store, 1, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// openSyncWAL opens a WALStore in the acceptor's synchronous mode.
func openSyncWAL(t *testing.T, dir string) *storage.WALStore {
	t.Helper()
	s, err := storage.OpenWALStore(dir, storage.WALStoreOptions{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedLog persists accepted and decided records for slots 1..n through one
// group commit, as a burst of accepts and decides would.
func seedLog(t *testing.T, store storage.Store, n int) {
	t.Helper()
	r := newSoloReplica(t, store)
	r.beginBurst()
	for slot := types.Slot(1); slot <= types.Slot(n); slot++ {
		cmd := appCmd("c", uint64(slot))
		r.persistAccepted(acceptedEntry{Slot: slot, Ballot: types.Ballot{Round: 1, Leader: "n1"}, Cmd: cmd})
		r.persistDecided(slot, cmd)
	}
	r.endBurst()
	if v := r.Stats().InvariantViolations; v != 0 {
		t.Fatalf("seeding the log counted %d violations", v)
	}
}

// slotRecords returns the slots that still have an acc/ or dec/ record.
func slotRecords(t *testing.T, store storage.Store) (acc, dec map[types.Slot]bool) {
	t.Helper()
	acc, dec = make(map[types.Slot]bool), make(map[types.Slot]bool)
	for kind, into := range map[string]map[types.Slot]bool{"acc/": acc, "dec/": dec} {
		kvs, err := store.Scan("pxs/1/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			rd := types.NewReader(kv.Value)
			into[types.Slot(rd.Uvarint())] = true
		}
	}
	return acc, dec
}

// TestTruncateBelowIsOneGroupCommit pins the cost of a truncation on the
// synchronous WAL: releasing a checkpoint interval's worth of slots is one
// group commit, not one fsync per deleted record, and the released records
// are gone from disk after a restart.
func TestTruncateBelowIsOneGroupCommit(t *testing.T) {
	const n = 4096
	dir := t.TempDir()
	store := openSyncWAL(t, dir)
	seedLog(t, store, n)
	r := newSoloReplica(t, store)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range r.Decisions() {
		}
	}()
	waitFor(t, "recovered log to be delivered under a leader", 10*time.Second, func() bool {
		_, lead := r.Leader()
		return lead && r.Progress().Delivered == n
	})
	// Let the election's writes settle so only the truncation is counted.
	waitFor(t, "the engine to go quiet", 10*time.Second, func() bool {
		before := store.Syncs()
		time.Sleep(50 * time.Millisecond)
		return store.Syncs() == before
	})

	before := store.Syncs()
	r.TruncateBelow(n)
	waitFor(t, "truncation", 10*time.Second, func() bool { return r.Progress().TruncatedBelow == n })
	r.Stop() // the loop has finished the truncation's burst
	if got := store.Syncs() - before; got > 2 {
		t.Fatalf("truncating %d slots cost %d fsyncs, want at most 2", n, got)
	}
	if st := r.Stats(); st.TruncatedSlots != n || st.RetainedSlots != 0 || st.InvariantViolations != 0 {
		t.Fatalf("stats after truncation: %+v", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store = openSyncWAL(t, dir)
	defer func() { _ = store.Close() }()
	if acc, dec := slotRecords(t, store); len(acc)+len(dec) != 0 {
		t.Fatalf("released records survived a restart: %d acc/, %d dec/", len(acc), len(dec))
	}
	if floor, err := TruncatedFloor(store, 1); err != nil || floor != n {
		t.Fatalf("durable floor = %d, %v; want %d", floor, err, n)
	}
}

// TestTruncationFloorFirstSurvivesTornBurst cuts the WAL after every record
// of one truncation burst and recovers a replica from each cut. The floor
// record is staged before the deletes and the WAL is durable as a prefix,
// so every cut either keeps the new floor or keeps every released record:
// no crash point forgets accepted or decided values above the durable floor.
func TestTruncationFloorFirstSurvivesTornBurst(t *testing.T) {
	const n, floor = 32, 20
	dir := t.TempDir()
	store := openSyncWAL(t, dir)
	seedLog(t, store, n)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment, have %v (%v)", segs, err)
	}
	seg := segs[0]
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	burstStart := st.Size()

	r := newSoloReplica(t, store)
	r.deliverReady()
	r.beginBurst()
	r.truncateBelow(floor)
	r.endBurst()
	if r.truncatedBelow != floor {
		t.Fatalf("floor = %d, want %d", r.truncatedBelow, floor)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int64{burstStart}
	for pos := burstStart; pos < int64(len(data)); {
		length, vn := binary.Uvarint(data[pos:])
		if vn <= 0 {
			t.Fatalf("bad WAL frame at offset %d", pos)
		}
		pos += int64(vn) + 4 + int64(length)
		cuts = append(cuts, pos)
	}
	if records := len(cuts) - 1; records != 2*floor+1 {
		t.Fatalf("truncation burst wrote %d records, want the floor plus %d deletes", records, 2*floor)
	}

	for _, cut := range cuts {
		cdir := t.TempDir()
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Join(dir, f.Name()) == seg {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(cdir, f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cs := openSyncWAL(t, cdir)
		got, err := TruncatedFloor(cs, 1)
		if err != nil {
			t.Fatal(err)
		}
		acc, dec := slotRecords(t, cs)
		switch got {
		case floor:
		case 0:
			for slot := types.Slot(1); slot <= floor; slot++ {
				if !acc[slot] || !dec[slot] {
					t.Fatalf("cut at %d: floor not durable, yet slot %d lost its records (acc %v, dec %v)",
						cut, slot, acc[slot], dec[slot])
				}
			}
		default:
			t.Fatalf("cut at %d: recovered floor %d, want 0 or %d", cut, got, floor)
		}
		rr := newSoloReplica(t, cs)
		if rr.truncatedBelow != got || len(rr.decided) != n-int(got) {
			t.Fatalf("cut at %d: recovered floor %d with %d decided slots", cut, rr.truncatedBelow, len(rr.decided))
		}
		acc, dec = slotRecords(t, cs)
		for slot := types.Slot(1); slot <= got; slot++ {
			if acc[slot] || dec[slot] {
				t.Fatalf("cut at %d: slot %d below the floor kept a record after recovery", cut, slot)
			}
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTruncationRecoverySweepsStale: acc/ and dec/ records at or below the
// durable floor (left by a crash between the floor and the deletes) are
// deleted by recovery, durably, instead of living on in the store.
func TestTruncationRecoverySweepsStale(t *testing.T) {
	const n, floor = 10, 6
	dir := t.TempDir()
	store := openSyncWAL(t, dir)
	seedLog(t, store, n)
	w := types.NewWriter(8)
	w.Uvarint(floor)
	if err := store.Set("pxs/1/trunc", w.Bytes()); err != nil {
		t.Fatal(err)
	}

	r := newSoloReplica(t, store)
	if r.truncatedBelow != floor || len(r.decided) != n-floor {
		t.Fatalf("recovered floor %d with %d decided slots", r.truncatedBelow, len(r.decided))
	}
	check := func(when string) {
		acc, dec := slotRecords(t, store)
		for slot := types.Slot(1); slot <= n; slot++ {
			want := slot > floor
			if acc[slot] != want || dec[slot] != want {
				t.Fatalf("%s: slot %d has acc/ %v dec/ %v, want %v", when, slot, acc[slot], dec[slot], want)
			}
		}
	}
	check("after recovery")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store = openSyncWAL(t, dir)
	defer func() { _ = store.Close() }()
	check("after reopen")
}

// TestTruncateBelowNeverBlocks: with the event loop stalled and its control
// queue full, TruncateBelow still returns at once (a caller holding its own
// lock cannot wedge behind the loop), and once the loop resumes the highest
// floor requested is the one applied.
func TestTruncateBelowNeverBlocks(t *testing.T) {
	tc := newTestCluster(t, 1, transport.Options{})
	tc.waitForLeader(2 * time.Second)
	const total = 20
	for i := 1; i <= total; i++ {
		tc.proposeVia("n1", appCmd("c", uint64(i)))
	}
	tc.waitUntil(func() bool {
		return len(tc.appDelivered("n1")) >= total
	}, "decisions", 5*time.Second)
	rep := tc.reps["n1"]

	stall, stalled := make(chan struct{}), make(chan struct{})
	var resume sync.Once
	release := func() { resume.Do(func() { close(stall) }) }
	t.Cleanup(release)
	rep.post(func() { close(stalled); <-stall })
	<-stalled
	for i := 0; i < cap(rep.ctrlCh); i++ {
		rep.ctrlCh <- func() {}
	}

	const top = types.Slot(15)
	rng := rand.New(rand.NewSource(1))
	floors := make([]types.Slot, 1000)
	for i := range floors {
		floors[i] = types.Slot(1 + rng.Intn(int(top)-1))
	}
	floors[rng.Intn(len(floors)-1)] = top
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for _, f := range floors {
			rep.TruncateBelow(f)
		}
		done <- time.Since(start)
	}()
	select {
	case d := <-done:
		if d > 100*time.Millisecond {
			t.Fatalf("%d TruncateBelow calls took %v behind a stalled loop", len(floors), d)
		}
	case <-time.After(2 * time.Second):
		release()
		t.Fatal("TruncateBelow blocked behind a stalled event loop")
	}

	release()
	tc.waitUntil(func() bool {
		return rep.Progress().TruncatedBelow == top
	}, "the highest requested floor", 5*time.Second)
	if got := rep.Stats().TruncatedSlots; got != int64(top) {
		t.Fatalf("truncated %d slots, want %d", got, top)
	}
}
