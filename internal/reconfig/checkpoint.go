package reconfig

// Within-configuration checkpoints: the mid-log snapshot producer, the
// quorum-gated log-truncation driver, and the lagging-replica catch-up path.
//
// A configuration that lives long enough accumulates an unbounded paxos log
// and forces a restarted or lagging member to replay it slot by slot. The
// producer periodically forks a copy-on-write snapshot of the machine at
// applied slot S (O(shards) under the node mutex, like the wedge capture) and
// publishes it under the configuration's existing rc/snap/<id> chunked
// namespace with Base=S — the SAME namespace a joiner fetches its initial
// state from, so the whole resumable multi-source transfer protocol, the
// manifest/chunk RPCs and the crash-resume logic are reused verbatim; the
// newest checkpoint simply replaces the configuration's initial snapshot in
// place (commit-ordered: chunks, sync, manifest, sync — a torn write leaves
// the predecessor intact).
//
// Truncation is gated on quorum durability: members exchange their newest
// durable checkpoint base via opCkptAnnounce/opCkptAck (the ack carries the
// receiver's own base, so one exchange teaches both sides), and each member
// truncates its engine below min(quorum-th largest base, own base) − margin.
// The self clamp keeps restart recovery self-contained (the local snapshot
// covers everything the local log no longer holds); the quorum clamp keeps
// the checkpoint fetchable — a laggard must find the state somewhere after
// the log stops serving it. Slots at or below any member's base were applied
// there, hence globally chosen, which is what makes the engine-level
// truncation floor safe to exchange in promises (see paxos/protocol.go).
//
// Catch-up: a member that detects a decision gap larger than
// CatchupGapSlots — or whose engine reports CheckpointNeeded because a peer
// redirected it below its truncation floor, or whose bounded decision buffer
// dropped parked decisions — fetches the newest checkpoint manifest from its
// peers, pulls the chunks in memory, swaps the machine under an epoch bump,
// and tells its engine to SkipTo(Base) instead of replaying every slot.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/types"
)

// ckptAnnounceTicks is how many housekeeping ticks pass between periodic
// re-announces of this member's newest durable checkpoint base (the repair
// path for lost announce RPCs, and how a healed member learns it may
// truncate).
const ckptAnnounceTicks = 10

// ckptFetchCooldownTicks spaces out fruitless catch-up probes: when no peer
// served a checkpoint newer than our applied slot, wait this many ticks
// before asking again.
const ckptFetchCooldownTicks = 5

// --- wire messages ----------------------------------------------------------

// ckptMsg is both the announce and the ack payload: "my newest durable
// checkpoint of Config has base Base". Base 0 means none yet.
type ckptMsg struct {
	Config types.ConfigID
	Base   types.Slot
}

func encodeCkptAnnounce(m ckptMsg) []byte {
	w := types.NewWriter(20)
	w.Byte(opCkptAnnounce)
	w.Uvarint(uint64(m.Config))
	w.Uvarint(uint64(m.Base))
	return w.Bytes()
}

func decodeCkptAnnounce(buf []byte) (ckptMsg, error) {
	if len(buf) == 0 || buf[0] != opCkptAnnounce {
		return ckptMsg{}, fmt.Errorf("%w: not a ckpt announce", types.ErrCodec)
	}
	return decodeCkptBody(buf[1:], "ckpt announce")
}

func encodeCkptAck(m ckptMsg) []byte {
	w := types.NewWriter(20)
	w.Byte(opCkptAck)
	w.Uvarint(uint64(m.Config))
	w.Uvarint(uint64(m.Base))
	return w.Bytes()
}

func decodeCkptAck(buf []byte) (ckptMsg, error) {
	if len(buf) == 0 || buf[0] != opCkptAck {
		return ckptMsg{}, fmt.Errorf("%w: not a ckpt ack", types.ErrCodec)
	}
	return decodeCkptBody(buf[1:], "ckpt ack")
}

func decodeCkptBody(body []byte, what string) (ckptMsg, error) {
	r := types.NewReader(body)
	m := ckptMsg{Config: types.ConfigID(r.Uvarint()), Base: types.Slot(r.Uvarint())}
	if err := r.Err(); err != nil {
		return ckptMsg{}, fmt.Errorf("%s: %w", what, err)
	}
	if r.Remaining() != 0 {
		return ckptMsg{}, fmt.Errorf("%w: trailing bytes in %s", types.ErrCodec, what)
	}
	return m, nil
}

// --- base tracking ----------------------------------------------------------

// ckptTrackLocked resets the checkpoint-base bookkeeping when the
// configuration has moved on; bases never carry across configurations (the
// successor's log starts fresh). Caller holds mu.
func (n *Node) ckptTrackLocked() {
	if n.ckptCfg == n.curID {
		return
	}
	n.ckptCfg = n.curID
	n.ckptSelfBase = 0
	n.ckptPeerBase = make(map[types.NodeID]types.Slot)
}

// noteCkptPeer records a peer's announced/acked checkpoint base and
// re-evaluates truncation.
func (n *Node) noteCkptPeer(from types.NodeID, id types.ConfigID, base types.Slot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || id != n.curID || base == 0 {
		return
	}
	n.ckptTrackLocked()
	if base > n.ckptPeerBase[from] {
		n.ckptPeerBase[from] = base
	}
	n.maybeTruncateLocked()
}

// handleCkptAnnounce integrates a peer's checkpoint announce and replies with
// our own newest base, making the exchange symmetric.
func (n *Node) handleCkptAnnounce(from types.NodeID, m ckptMsg, respond func([]byte)) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	ack := ckptMsg{Config: n.curID}
	if m.Config == n.curID {
		n.ckptTrackLocked()
		if m.Base > n.ckptPeerBase[from] {
			n.ckptPeerBase[from] = m.Base
		}
		ack.Base = n.ckptSelfBase
		n.maybeTruncateLocked()
	}
	n.mu.Unlock()
	respond(encodeCkptAck(ack))
}

// broadcastCkpt sends one announce to each recipient and folds the acked
// bases back in. Best-effort; the periodic re-announce covers losses.
func (n *Node) broadcastCkpt(members []types.NodeID, body []byte) {
	for _, m := range members {
		if m == n.self {
			continue
		}
		to := m
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(n.baseCtx, 500*time.Millisecond)
			defer cancel()
			resp, err := n.peer.Call(ctx, to, body, 0)
			if err != nil {
				return
			}
			if ack, err := decodeCkptAck(resp); err == nil {
				n.noteCkptPeer(to, ack.Config, ack.Base)
			}
		}()
	}
}

// --- producer ---------------------------------------------------------------

// maybeCheckpointLocked starts a checkpoint publication when the applied
// cursor has advanced CheckpointInterval slots past the newest durable
// checkpoint. Caller holds mu (the housekeeping tick).
func (n *Node) maybeCheckpointLocked() {
	if n.opts.NoCheckpoints || n.stopped || !n.initialized || n.ckptPublishing {
		return
	}
	if !n.configs[n.curID].IsMember(n.self) {
		return
	}
	n.ckptTrackLocked()
	if n.appliedSlot < n.ckptSelfBase+types.Slot(n.opts.CheckpointInterval) {
		return
	}
	// Fork under mu + execMu (shared): ApplyBatch holds execMu exclusively,
	// so the fork never observes a half-applied batch. The machine may
	// already contain a batch whose commit (the appliedSlot advance) is
	// still waiting on mu; Base then under-claims by one batch, and
	// replaying those commands over the checkpoint is idempotent through
	// session dedup.
	n.execMu.RLock()
	src := n.machine.ForkSnapshot()
	n.execMu.RUnlock()
	n.ckptPublishing = true
	n.wg.Add(1)
	go n.publishCheckpoint(n.curID, n.appliedSlot, src)
}

// publishCheckpoint serializes a forked checkpoint off the critical path
// (paced like publishSnapshot), persists it commit-ordered over the
// configuration's snapshot namespace, and announces the new base.
func (n *Node) publishCheckpoint(id types.ConfigID, base types.Slot, src statemachine.SnapshotSource) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		n.ckptPublishing = false
		n.mu.Unlock()
	}()
	num := src.NumChunks()
	chunks := make([][]byte, num)
	m := storage.ChunkManifest{Format: src.Format(), Base: base, CRCs: make([]uint32, num)}
	sincePause := 0
	for i := 0; i < num; i++ {
		chunks[i] = src.Chunk(i)
		m.CRCs[i] = storage.ChunkCRC(chunks[i])
		sincePause += len(chunks[i])
		if sincePause >= publishPaceBytes {
			sincePause = 0
			time.Sleep(publishPause)
			if n.ckptAborted(id) {
				return
			}
		}
	}
	if n.ckptAborted(id) {
		return
	}
	if err := storage.WriteChunkedCommit(n.store, snapPrefix(id), m, func(i int) []byte { return chunks[i] }); err != nil {
		n.countViolation()
		return
	}
	n.mu.Lock()
	if n.stopped || n.curID != id {
		n.mu.Unlock()
		return
	}
	n.ckptTrackLocked()
	if base > n.ckptSelfBase {
		n.ckptSelfBase = base
	}
	n.stats.checkpointsPublished++
	body := encodeCkptAnnounce(ckptMsg{Config: id, Base: n.ckptSelfBase})
	members := append([]types.NodeID(nil), n.configs[id].Members...)
	n.maybeTruncateLocked()
	n.mu.Unlock()
	n.broadcastCkpt(members, body)
}

// ckptAborted reports whether a checkpoint publication for id is moot.
func (n *Node) ckptAborted(id types.ConfigID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped || n.curID != id
}

// --- truncation -------------------------------------------------------------

// maybeTruncateLocked releases engine log state below
// min(quorum-th largest checkpoint base, own base) − margin. The self clamp
// keeps restart recovery self-contained; the quorum clamp keeps truncated
// slots fetchable as checkpoints by laggards; the margin keeps a small tail
// of recent slots serveable through the ordinary engine catch-up, so a
// briefly lagging member never pays a full state transfer. Caller holds mu;
// that is safe because TruncateBelow never blocks on the engine's loop.
func (n *Node) maybeTruncateLocked() {
	if n.opts.NoCheckpoints || n.stopped {
		return
	}
	cfg := n.configs[n.curID]
	run, ok := n.engines[n.curID]
	if !ok || !cfg.IsMember(n.self) {
		return
	}
	n.ckptTrackLocked()
	if n.ckptSelfBase == 0 {
		return
	}
	bases := make([]types.Slot, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		if m == n.self {
			bases = append(bases, n.ckptSelfBase)
		} else {
			bases = append(bases, n.ckptPeerBase[m]) // zero when unknown
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] > bases[j] })
	quorumBase := bases[len(cfg.Members)/2] // quorum-th largest
	floor := quorumBase
	if n.ckptSelfBase < floor {
		floor = n.ckptSelfBase
	}
	margin := types.Slot(n.opts.CheckpointMargin)
	if floor <= margin {
		return
	}
	run.eng.TruncateBelow(floor - margin)
}

// --- catch-up ---------------------------------------------------------------

// maybeCatchupLocked launches a checkpoint catch-up when the engine's
// contiguous decided frontier (one O(1) Progress read, not a slot-by-slot
// probe) is more than CatchupGapSlots ahead of the applied cursor, when a
// peer redirected the engine below its truncation floor, or when the bounded
// decision buffer dropped parked decisions. Caller holds mu.
func (n *Node) maybeCatchupLocked() {
	if n.opts.NoCheckpoints || n.stopped || n.ckptFetching || !n.initialized {
		return
	}
	if n.tick < n.ckptNextFetchTick {
		return
	}
	if !n.configs[n.curID].IsMember(n.self) {
		return
	}
	run, ok := n.engines[n.curID]
	if !ok {
		return
	}
	p := run.eng.Progress()
	var gap types.Slot
	if p.MaxDecidedSeen > n.appliedSlot {
		gap = p.MaxDecidedSeen - n.appliedSlot
	}
	dropped := run.droppedBelow > n.appliedSlot
	if !p.CheckpointNeeded && !dropped && gap < types.Slot(n.opts.CatchupGapSlots) {
		return
	}
	n.ckptFetching = true
	n.wg.Add(1)
	go n.runCheckpointCatchup(n.curID, n.appliedSlot)
}

// catchupAborted reports whether an in-flight checkpoint catch-up is moot.
func (n *Node) catchupAborted(id types.ConfigID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped || n.curID != id || !n.initialized
}

// runCheckpointCatchup fetches the newest checkpoint of id from peers and
// installs it over the running machine. Unlike the joiner's runFetch, the
// node is initialized and serving throughout: chunks are pulled into memory
// only (persisting them incrementally would corrupt the on-disk blob the old
// manifest still describes), the machine swap is epoch-checked, and the
// checkpoint is persisted commit-ordered after the install.
func (n *Node) runCheckpointCatchup(id types.ConfigID, curApplied types.Slot) {
	defer n.wg.Done()
	fruitless := true
	defer func() {
		n.mu.Lock()
		n.ckptFetching = false
		if fruitless {
			n.ckptNextFetchTick = n.tick + ckptFetchCooldownTicks
		}
		n.mu.Unlock()
	}()

	rng := rand.New(rand.NewSource(SeedFor(string(n.self)) ^ (int64(id) << 17) ^ 0x5ca1ab1e))
	n.mu.Lock()
	sources := n.fetchSourcesLocked(id)
	n.mu.Unlock()

	m, lead, ok := n.fetchManifest(id, sources, rng)
	if !ok || m.Base <= curApplied {
		return // no peer holds anything newer than what we applied
	}
	chunks := make([][]byte, m.Chunks())
	for i, data := range lead {
		if i < len(chunks) {
			n.acceptChunk("", m, chunks, nil, i, data)
		}
	}
	abort := func() bool { return n.catchupAborted(id) }
	for attempt := 0; ; {
		if abort() {
			return
		}
		missing := 0
		for _, c := range chunks {
			if c == nil {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if n.fetchMissingChunks(id, "", m, chunks, sources, abort) {
			attempt = 0
			continue
		}
		attempt++
		if attempt > 4 {
			return // sources dried up mid-fetch; a later tick retries
		}
		n.mu.Lock()
		n.stats.chunkRetries++
		n.mu.Unlock()
		delay := BackoffDelay(attempt, n.opts.RetryInterval, 4*n.opts.FetchTimeout, rng)
		select {
		case <-time.After(delay):
		case <-n.stopCh:
			return
		}
		n.mu.Lock()
		sources = n.fetchSourcesLocked(id)
		n.mu.Unlock()
	}
	fruitless = !n.installCheckpoint(id, m, chunks)
}

// installCheckpoint swaps a fully fetched checkpoint in as the machine state
// and jumps the engine's delivery cursor to its base. The O(state) machine
// build runs off-mutex; the swap is re-validated under the lock and bumps the
// epoch so any in-flight off-mutex apply segment against the old machine is
// discarded at its commit check. Reports whether the install happened.
func (n *Node) installCheckpoint(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte) bool {
	fresh, err := n.buildMachine(m, chunks)
	n.mu.Lock()
	if err != nil {
		n.stats.violations++
		n.mu.Unlock()
		return false
	}
	if n.stopped || n.curID != id || !n.initialized || m.Base <= n.appliedSlot {
		n.mu.Unlock()
		return false
	}
	n.machine = fresh
	n.appliedSlot = m.Base
	n.stats.catchupFetches++
	if run, ok := n.engines[id]; ok {
		// Parked decisions at or below Base are folded into the checkpoint;
		// the cursor stale-skip drains them. The engine releases its own
		// records below Base and resumes contiguous delivery above it.
		if run.droppedBelow <= m.Base {
			run.droppedBelow = 0
		}
		run.eng.SkipTo(m.Base)
	}
	n.notifyTransitionLocked()
	n.resubmitPendingLocked(true)
	n.mu.Unlock()

	// Persist what we installed (commit-ordered over the old blob) so a
	// restart recovers from Base instead of a state it no longer has the
	// log for; only then adopt it as our announced durable base.
	if err := storage.WriteChunkedCommit(n.store, snapPrefix(id), m, func(i int) []byte { return chunks[i] }); err != nil {
		n.countViolation()
		return true
	}
	n.mu.Lock()
	if !n.stopped && n.curID == id {
		n.ckptTrackLocked()
		if m.Base > n.ckptSelfBase {
			n.ckptSelfBase = m.Base
		}
	}
	n.mu.Unlock()
	// Nudge the apply loop: buffered decisions above Base may be ready.
	select {
	case n.pumpCh <- struct{}{}:
	default:
	}
	return true
}
