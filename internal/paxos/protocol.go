package paxos

import (
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/types"
)

// --- persistence -----------------------------------------------------------

func (r *Replica) persistPromised() {
	w := types.NewWriter(16)
	w.Ballot(r.promised)
	// Stable storage failures are unrecoverable for an acceptor; surface
	// them as invariant violations so tests and the harness notice.
	if err := r.setDurable(r.prefix+"promised", w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

func (r *Replica) persistAccepted(e acceptedEntry) {
	w := types.NewWriter(24 + e.Cmd.EncodedSize())
	w.Uvarint(uint64(e.Slot))
	w.Ballot(e.Ballot)
	e.Cmd.Encode(w)
	if err := r.setDurable(storage.SlotKey(r.prefix+"acc/", uint64(e.Slot)), w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

func (r *Replica) persistDecided(slot types.Slot, cmd types.Command) {
	w := types.NewWriter(8 + cmd.EncodedSize())
	w.Uvarint(uint64(slot))
	cmd.Encode(w)
	if err := r.setDurable(storage.SlotKey(r.prefix+"dec/", uint64(slot)), w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

// --- message dispatch ------------------------------------------------------

func (r *Replica) handleMessage(m inboundMsg) {
	switch m.kind {
	case KindPrepare:
		msg, err := decodePrepare(m.payload)
		if err == nil {
			r.onPrepare(m.from, msg)
		}
	case KindPromise:
		msg, err := decodePromise(m.payload)
		if err == nil {
			r.onPromise(m.from, msg)
		}
	case KindAccept:
		msg, err := decodeAccept(m.payload)
		if err == nil {
			r.onAccept(m.from, msg)
		}
	case KindAccepted:
		msg, err := decodeAccepted(m.payload)
		if err == nil {
			r.onAccepted(m.from, msg)
		}
	case KindDecide:
		msg, err := decodeDecide(m.payload)
		if err == nil {
			r.learn(msg.Slot, msg.Cmd)
		}
	case KindHeartbeat:
		msg, err := decodeHeartbeat(m.payload)
		if err == nil {
			r.onHeartbeat(m.from, msg)
		}
	case KindCatchupReq:
		msg, err := decodeCatchupReq(m.payload)
		if err == nil {
			r.onCatchupReq(m.from, msg)
		}
	case KindCatchupResp:
		msg, err := decodeCatchupResp(m.payload)
		if err == nil {
			for _, e := range msg.Entries {
				r.learn(e.Slot, e.Cmd)
			}
			// Appended progress fields: the responder's contiguous frontier
			// is a decided watermark, and a truncation floor at or above our
			// delivery cursor means the missing prefix is gone from the log —
			// only a checkpoint install (reconfig layer) can fill it.
			if msg.Frontier > r.maxDecidedSeen {
				r.maxDecidedSeen = msg.Frontier
			}
			if msg.TruncatedBelow >= r.deliverNext {
				if msg.TruncatedBelow > r.maxDecidedSeen {
					r.maxDecidedSeen = msg.TruncatedBelow
				}
				r.ckptNeeded.Store(true)
			}
		}
	case KindForward:
		msg, err := decodeForward(m.payload)
		if err == nil {
			for _, cmd := range msg.Cmds {
				r.handlePropose(cmd)
			}
		}
	case KindReadProbe:
		msg, err := decodeReadProbe(m.payload)
		if err == nil {
			r.onReadProbe(m.from, msg)
		}
	case KindReadProbeAck:
		msg, err := decodeReadProbeAck(m.payload)
		if err == nil {
			r.onReadProbeAck(m.from, msg)
		}
	case KindHeartbeatAck:
		msg, err := decodeHeartbeatAck(m.payload)
		if err == nil {
			r.onHeartbeatAck(m.from, msg)
		}
	}
}

func (r *Replica) send(to types.NodeID, kind uint8, payload []byte) {
	if to == r.self {
		return // local interactions are handled synchronously, never sent
	}
	if r.inBurst {
		r.outbox = append(r.outbox, deferredSend{to: to, kind: kind, payload: payload})
		return
	}
	_ = r.ep.Send(to, r.stream, kind, payload)
}

func (r *Replica) broadcast(kind uint8, payload []byte) {
	if r.inBurst {
		r.outbox = append(r.outbox, deferredSend{kind: kind, payload: payload})
		return
	}
	r.ep.Broadcast(r.cfg.Members, r.stream, kind, payload)
}

// setDurable writes acceptor/learner state. Inside a burst the write is
// staged and becomes durable at the burst's group-commit Sync — strictly
// before any message or decision from the burst is released (endBurst);
// outside a burst it is a plain synchronous durable write.
func (r *Replica) setDurable(key string, value []byte) error {
	if r.inBurst {
		r.burstDirty = true
		return r.bstore.SetBuffered(key, value)
	}
	return r.store.Set(key, value)
}

// deleteDurable removes acceptor/learner state, staged into the burst's
// group commit exactly like setDurable.
func (r *Replica) deleteDurable(key string) error {
	if r.inBurst {
		r.burstDirty = true
		return r.bstore.DeleteBuffered(key)
	}
	return r.store.Delete(key)
}

// --- acceptor role ---------------------------------------------------------

// acceptPrepare applies phase-1a to the local acceptor state and returns the
// promise to send back. Persisting happens before the reply leaves.
func (r *Replica) acceptPrepare(msg prepareMsg) promiseMsg {
	if msg.Ballot.Less(r.promised) {
		return promiseMsg{Ballot: msg.Ballot, OK: false, Promised: r.promised,
			Decided: r.deliverNext - 1, TruncatedBelow: r.truncatedBelow}
	}
	if r.promised.Less(msg.Ballot) {
		r.promised = msg.Ballot
		r.persistPromised()
	}
	out := promiseMsg{Ballot: msg.Ballot, OK: true, Promised: r.promised,
		Decided: r.deliverNext - 1, TruncatedBelow: r.truncatedBelow}
	for slot, e := range r.accepted {
		if slot >= msg.From {
			out.Accepted = append(out.Accepted, e)
		}
	}
	return out
}

func (r *Replica) onPrepare(from types.NodeID, msg prepareMsg) {
	if r.suppressPrepare(msg) {
		// Lease mode: no promise for a rival while the current leader is
		// inside its liveness window; the candidate retries and succeeds
		// once the window lapses.
		return
	}
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	pm := r.acceptPrepare(msg)
	if pm.OK && (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	r.send(from, KindPromise, encodePromise(pm))
}

// acceptAccept applies phase-2a locally and returns the vote.
func (r *Replica) acceptAccept(msg acceptMsg) acceptedMsg {
	if msg.Ballot.Less(r.promised) {
		return acceptedMsg{Ballot: msg.Ballot, Slot: msg.Slot, OK: false, Promised: r.promised}
	}
	if r.promised.Less(msg.Ballot) {
		r.promised = msg.Ballot
		r.persistPromised()
	}
	e := acceptedEntry{Slot: msg.Slot, Ballot: msg.Ballot, Cmd: msg.Cmd}
	r.accepted[msg.Slot] = e
	r.persistAccepted(e)
	if msg.Slot >= r.nextSlot {
		r.nextSlot = msg.Slot + 1
	}
	return acceptedMsg{Ballot: msg.Ballot, Slot: msg.Slot, OK: true, Promised: r.promised}
}

func (r *Replica) onAccept(from types.NodeID, msg acceptMsg) {
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	if (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	// Fast path for already-decided slots: tell the proposer directly.
	if cmd, ok := r.decided[msg.Slot]; ok {
		r.send(from, KindDecide, encodeDecide(decideMsg{Slot: msg.Slot, Cmd: cmd}))
		return
	}
	// Truncated slots were chosen, quorum-acknowledged by a checkpoint, and
	// released — the command bytes are gone, so neither the decided fast
	// path nor a fresh vote is possible. Voting would be outright unsafe: a
	// leader that missed the checkpoint could noop-fill a released slot and
	// this vote would help decide a second, different value for it. Answer
	// with a checkpoint redirect instead (never a silent miss).
	if msg.Slot <= r.truncatedBelow {
		r.send(from, KindCatchupResp, encodeCatchupResp(catchupRespMsg{
			Frontier:       r.deliverNext - 1,
			TruncatedBelow: r.truncatedBelow,
		}))
		return
	}
	am := r.acceptAccept(msg)
	r.send(from, KindAccepted, encodeAccepted(am))
}

// --- proposer / leader role --------------------------------------------------

func (r *Replica) startElection() {
	r.stats.elections.Add(1)
	r.role = roleCandidate
	r.amLeader.Store(false)
	base := r.maxBallotSeen
	if base.Less(r.promised) {
		base = r.promised
	}
	if base.Less(r.ballot) {
		base = r.ballot
	}
	r.ballot = base.Next(r.self)
	if r.maxBallotSeen.Less(r.ballot) {
		r.maxBallotSeen = r.ballot
	}
	r.promises = make(map[types.NodeID]promiseMsg, r.cfg.N())
	r.prepareAge = 0
	r.resetElectionDeadline()

	msg := prepareMsg{Ballot: r.ballot, From: r.deliverNext}
	// Promise to ourselves first (persisted), then solicit the others.
	self := r.acceptPrepare(msg)
	r.broadcast(KindPrepare, encodePrepare(msg))
	r.onPromise(r.self, self)
}

func (r *Replica) onPromise(from types.NodeID, msg promiseMsg) {
	if r.role != roleCandidate || !msg.Ballot.Equal(r.ballot) {
		return
	}
	if !msg.OK {
		if r.maxBallotSeen.Less(msg.Promised) {
			r.maxBallotSeen = msg.Promised
		}
		r.stepDown()
		return
	}
	if msg.Decided > r.maxDecidedSeen {
		r.maxDecidedSeen = msg.Decided
	}
	r.promises[from] = msg
	if len(r.promises) >= r.cfg.Quorum() {
		r.becomeLeader()
	}
}

func (r *Replica) becomeLeader() {
	r.role = roleLeader
	r.amLeader.Store(true)
	r.leaderHint.Store(r.self)
	r.inflight = make(map[types.Slot]*slotProgress)
	r.hbCountdown = 0

	// Adopt the highest-ballot accepted value per open slot from the
	// promise quorum; slots with no reported value get noops.
	from := r.deliverNext
	best := make(map[types.Slot]acceptedEntry)
	var maxSeen types.Slot
	for _, pm := range r.promises {
		for _, e := range pm.Accepted {
			if e.Slot < from {
				continue
			}
			if cur, ok := best[e.Slot]; !ok || cur.Ballot.Less(e.Ballot) {
				best[e.Slot] = e
			}
			if e.Slot > maxSeen {
				maxSeen = e.Slot
			}
		}
	}
	if r.nextSlot <= maxSeen {
		r.nextSlot = maxSeen + 1
	}
	if r.nextSlot < from {
		r.nextSlot = from
	}
	// Truncation floors reported by the promise quorum. Every slot at or
	// below a promiser's floor is globally chosen (floors rise only after a
	// quorum-acknowledged checkpoint), but its value may be unrecoverable
	// from this quorum: the promiser that accepted it has released the
	// bytes, and any accepted entry another promiser reports for it may be
	// a stale lower-ballot value that lost. Re-proposing anything at such a
	// slot — a noop or a reported value — risks deciding a second value, so
	// those slots are skipped entirely; the checkpoint covers them.
	maxFloor := r.truncatedBelow
	for _, pm := range r.promises {
		if pm.TruncatedBelow > maxFloor {
			maxFloor = pm.TruncatedBelow
		}
	}
	if maxFloor > r.maxDecidedSeen {
		r.maxDecidedSeen = maxFloor
	}
	if r.deliverNext <= maxFloor {
		// Our own delivery cursor is inside the released range: no log
		// replay can fill it, only a checkpoint install.
		r.ckptNeeded.Store(true)
	}
	// Read fast-path bookkeeping: every command chosen before this election
	// is below nextSlot now (promise-quorum intersection), so nextSlot-1 is
	// a floor for all read indexes this term. No lease or probe round from
	// an earlier term survives the transition.
	r.electionFloor = r.nextSlot - 1
	r.clearLease()
	r.failReadWaiters(smr.ErrNotLeader)

	for slot := from; slot < r.nextSlot; slot++ {
		if cmd, ok := r.decided[slot]; ok {
			// Already chosen: re-announce for the benefit of laggards.
			r.broadcast(KindDecide, encodeDecide(decideMsg{Slot: slot, Cmd: cmd}))
			continue
		}
		if slot <= maxFloor {
			continue // released after a checkpoint; never re-propose
		}
		if e, ok := best[slot]; ok {
			r.proposeAtSlot(slot, e.Cmd)
		} else {
			r.proposeAtSlot(slot, types.NoopCommand())
		}
	}
	r.drainPending()
}

// proposeNext assigns cmd the next free slot and runs phase 2 for it. The
// slot counter is advanced before the local accept so the acceptor-side
// bookkeeping in acceptAccept cannot double-advance it.
func (r *Replica) proposeNext(cmd types.Command) {
	slot := r.nextSlot
	r.nextSlot++
	r.proposeAtSlot(slot, cmd)
}

// proposeAtSlot runs phase 2 for cmd at slot under the current ballot.
func (r *Replica) proposeAtSlot(slot types.Slot, cmd types.Command) {
	sp := &slotProgress{cmd: cmd, acks: make(map[types.NodeID]bool, r.cfg.N())}
	r.inflight[slot] = sp
	msg := acceptMsg{Ballot: r.ballot, Slot: slot, Cmd: cmd}
	self := r.acceptAccept(msg) // local vote, persisted first
	r.broadcast(KindAccept, encodeAccept(msg))
	if self.OK {
		sp.acks[r.self] = true
		r.maybeDecide(slot, sp)
	}
}

func (r *Replica) onAccepted(from types.NodeID, msg acceptedMsg) {
	if r.role != roleLeader || !msg.Ballot.Equal(r.ballot) {
		return
	}
	if !msg.OK {
		if r.maxBallotSeen.Less(msg.Promised) {
			r.maxBallotSeen = msg.Promised
		}
		r.stepDown()
		return
	}
	sp, ok := r.inflight[msg.Slot]
	if !ok {
		return // already decided or cleaned up
	}
	sp.acks[from] = true
	r.maybeDecide(msg.Slot, sp)
}

func (r *Replica) maybeDecide(slot types.Slot, sp *slotProgress) {
	if len(sp.acks) < r.cfg.Quorum() {
		return
	}
	delete(r.inflight, slot)
	r.broadcast(KindDecide, encodeDecide(decideMsg{Slot: slot, Cmd: sp.cmd}))
	r.learn(slot, sp.cmd)
	r.drainPending()
}

func (r *Replica) stepDown() {
	if r.role == roleLeader || r.role == roleCandidate {
		r.stats.stepDowns.Add(1)
	}
	r.role = roleFollower
	r.amLeader.Store(false)
	// Re-queue inflight commands: a new leader may or may not choose
	// them; session dedup upstairs makes the re-submission harmless.
	for _, sp := range r.inflight {
		if !sp.cmd.IsNoop() && len(r.pending) < r.opts.PendingLimit {
			r.pending = append(r.pending, sp.cmd)
		}
	}
	r.inflight = make(map[types.Slot]*slotProgress)
	r.promises = make(map[types.NodeID]promiseMsg)
	// A deposed leader must answer no more fast-path reads: fail waiters
	// (callers fall back to the log) and drop any lease immediately.
	r.failReadWaiters(smr.ErrNotLeader)
	r.clearLease()
	r.resetElectionDeadline()
}

// --- learner role ------------------------------------------------------------

func (r *Replica) learn(slot types.Slot, cmd types.Command) {
	if slot <= r.truncatedBelow {
		// Already covered by an installed checkpoint and released; learning
		// it again would resurrect a record below the truncation floor.
		return
	}
	if sp, ok := r.inflight[slot]; ok {
		// The slot was chosen out of band — an old leader's decide
		// broadcast, a catch-up response, or an acceptor's already-decided
		// fast path in onAccept — so our own phase-2 round for it is moot.
		// The entry must be cleared here: nothing else removes it (the
		// acceptors keep answering KindDecide, never Accepted), and a few
		// such zombies would permanently fill the Pipeline window and wedge
		// the proposer. If a different value won the slot, re-queue ours;
		// session dedup upstairs makes the re-submission harmless.
		delete(r.inflight, slot)
		if !sp.cmd.Equal(cmd) && !sp.cmd.IsNoop() && len(r.pending) < r.opts.PendingLimit {
			r.pending = append(r.pending, sp.cmd)
		}
		defer r.drainPending()
	}
	if prev, ok := r.decided[slot]; ok {
		if !prev.Equal(cmd) {
			// Two different decisions for one slot: agreement broken.
			r.stats.violations.Add(1)
		}
		return
	}
	r.decided[slot] = cmd
	r.persistDecided(slot, cmd)
	r.stats.retained.Store(int64(len(r.decided)))
	if slot > r.maxDecidedSeen {
		r.maxDecidedSeen = slot
	}
	if slot >= r.nextSlot {
		r.nextSlot = slot + 1
	}
	r.deliverReady()
}

func (r *Replica) deliverReady() {
	for {
		cmd, ok := r.decided[r.deliverNext]
		if !ok {
			return
		}
		r.enqueueDecision(smr.Decision{Slot: r.deliverNext, Cmd: cmd})
		r.stats.decided.Add(1)
		r.deliverNext++
	}
}

func (r *Replica) onCatchupReq(from types.NodeID, msg catchupReqMsg) {
	// A request that starts at or below our truncation floor cannot be
	// served from the log — those slots were released after a checkpoint.
	// Serve what we still have above the floor and let the appended
	// TruncatedBelow field redirect the requester to the checkpoint.
	start := msg.From
	redirect := false
	if start <= r.truncatedBelow {
		redirect = true
		start = r.truncatedBelow + 1
	}
	to := msg.To
	if limit := start + types.Slot(r.opts.CatchupBatch) - 1; to > limit {
		to = limit
	}
	resp := catchupRespMsg{Frontier: r.deliverNext - 1, TruncatedBelow: r.truncatedBelow}
	for slot := start; slot <= to; slot++ {
		if cmd, ok := r.decided[slot]; ok {
			resp.Entries = append(resp.Entries, decideMsg{Slot: slot, Cmd: cmd})
		}
	}
	if len(resp.Entries) > 0 || redirect {
		r.send(from, KindCatchupResp, encodeCatchupResp(resp))
	}
}

// --- proposals ----------------------------------------------------------------

func (r *Replica) handlePropose(cmd types.Command) {
	r.stats.proposals.Add(1)
	if r.role == roleLeader && r.opts.BatchSize <= 1 && len(r.inflight) < r.opts.Pipeline {
		r.proposeNext(cmd)
		return
	}
	if len(r.pending) >= r.opts.PendingLimit {
		return // overload: drop; clients retry
	}
	r.pending = append(r.pending, cmd)
	if r.role == roleLeader {
		r.drainPending() // batching path: pack what is queued
		return
	}
	r.flushPendingToLeader()
}

// drainPending assigns queued proposals to slots while the pipeline window
// (Options.Pipeline, always <= MaxInflight) has room, packing up to
// BatchSize commands per slot. Keeping the working window narrower than the
// protocol's hard MaxInflight bound concentrates queued commands into fewer,
// fuller slots: each open slot costs a broadcast, a durable log record on
// every acceptor, and a decision delivery.
func (r *Replica) drainPending() {
	for r.role == roleLeader && len(r.pending) > 0 && len(r.inflight) < r.opts.Pipeline {
		k := r.opts.BatchSize
		if k > len(r.pending) {
			k = len(r.pending)
		}
		if k <= 1 {
			cmd := r.pending[0]
			r.pending = r.pending[1:]
			r.proposeNext(cmd)
			continue
		}
		batch := types.BatchCommand(r.pending[:k])
		r.pending = r.pending[k:]
		r.proposeNext(batch)
	}
}

// flushPendingToLeader forwards queued proposals when we are a follower that
// knows the leader.
func (r *Replica) flushPendingToLeader() {
	if r.role != roleFollower || len(r.pending) == 0 {
		return
	}
	hint, _ := r.leaderHint.Load().(types.NodeID)
	if hint == "" || hint == r.self {
		return
	}
	// One frame for the whole queue (chunked so a huge backlog cannot
	// produce an oversized frame); encodeForward copies, so the pending
	// buffer can be reused immediately.
	for pend := r.pending; len(pend) > 0; {
		k := len(pend)
		if k > maxForwardBatch {
			k = maxForwardBatch
		}
		r.send(hint, KindForward, encodeForward(forwardMsg{Cmds: pend[:k]}))
		pend = pend[k:]
	}
	r.pending = r.pending[:0]
}

// maxForwardBatch caps how many queued commands ride in one forward frame.
const maxForwardBatch = 128

// --- heartbeats & timers --------------------------------------------------------

func (r *Replica) onHeartbeat(from types.NodeID, msg heartbeatMsg) {
	if msg.Ballot.Less(r.maxBallotSeen) {
		// Stale leader; still use its decided watermark for catch-up.
		if msg.Decided > r.maxDecidedSeen {
			r.maxDecidedSeen = msg.Decided
		}
		return
	}
	r.maxBallotSeen = msg.Ballot
	if (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	r.leaderHint.Store(msg.Ballot.Leader)
	r.ticksSinceHB = 0
	if msg.Decided > r.maxDecidedSeen {
		r.maxDecidedSeen = msg.Decided
	}
	if msg.WantAck {
		r.send(from, KindHeartbeatAck, encodeHeartbeatAck(heartbeatAckMsg{Ballot: msg.Ballot, Seq: msg.Seq}))
	}
	r.flushPendingToLeader()
}

func (r *Replica) tick() {
	switch r.role {
	case roleLeader:
		r.hbCountdown--
		if r.hbCountdown <= 0 {
			r.hbCountdown = r.opts.HeartbeatEveryTicks
			hb := heartbeatMsg{Ballot: r.ballot, Decided: r.deliverNext - 1}
			if r.opts.EnableLeaseReads {
				r.hbSeq++
				hb.Seq = r.hbSeq
				hb.WantAck = true
				r.noteHeartbeatSent(hb.Seq)
			}
			r.broadcast(KindHeartbeat, encodeHeartbeat(hb))
		}
		if pr := r.curProbe; pr != nil {
			pr.age++
			if pr.age >= r.opts.ResendTicks {
				pr.age = 0
				r.broadcast(KindReadProbe, encodeReadProbe(readProbeMsg{Ballot: r.ballot, Seq: pr.seq}))
			}
		}
		for slot, sp := range r.inflight {
			sp.sinceTicks++
			if sp.sinceTicks >= r.opts.ResendTicks {
				sp.sinceTicks = 0
				r.broadcast(KindAccept, encodeAccept(acceptMsg{Ballot: r.ballot, Slot: slot, Cmd: sp.cmd}))
			}
		}
		r.drainPending()
	case roleCandidate:
		r.prepareAge++
		if r.prepareAge >= r.opts.ResendTicks {
			r.prepareAge = 0
			r.broadcast(KindPrepare, encodePrepare(prepareMsg{Ballot: r.ballot, From: r.deliverNext}))
		}
		r.ticksSinceHB++
		if r.ticksSinceHB >= r.electionDeadline {
			r.startElection() // new, higher ballot
		}
	default: // follower
		r.ticksSinceHB++
		if r.ticksSinceHB >= r.electionDeadline {
			r.startElection()
		}
		r.flushPendingToLeader()
	}

	// Catch-up: if we know of decided slots beyond our contiguous prefix,
	// ask a peer for the hole.
	r.catchupCooldown--
	if r.catchupCooldown <= 0 && r.maxDecidedSeen >= r.deliverNext {
		r.catchupCooldown = 2
		target := r.pickCatchupPeer()
		if target != "" {
			r.stats.catchups.Add(1)
			req := catchupReqMsg{From: r.deliverNext, To: r.maxDecidedSeen}
			r.send(target, KindCatchupReq, encodeCatchupReq(req))
		}
	}
}

func (r *Replica) pickCatchupPeer() types.NodeID {
	if hint, _ := r.leaderHint.Load().(types.NodeID); hint != "" && hint != r.self {
		return hint
	}
	others := r.cfg.Others(r.self)
	if len(others) == 0 {
		return ""
	}
	return others[r.rng.Intn(len(others))]
}
