package inband

import (
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/types"
)

// --- persistence ---------------------------------------------------------------

func (r *Replica) persistPromised() {
	w := types.NewWriter(16)
	w.Ballot(r.promised)
	if err := r.store.Set(r.prefix+"promised", w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

func (r *Replica) persistAccepted(e acceptedEntry) {
	w := types.NewWriter(24 + e.Cmd.EncodedSize())
	w.Uvarint(uint64(e.Slot))
	w.Ballot(e.Ballot)
	e.Cmd.Encode(w)
	if err := r.store.Set(storage.SlotKey(r.prefix+"acc/", uint64(e.Slot)), w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

func (r *Replica) persistDecided(slot types.Slot, cmd types.Command) {
	w := types.NewWriter(8 + cmd.EncodedSize())
	w.Uvarint(uint64(slot))
	cmd.Encode(w)
	if err := r.store.Set(storage.SlotKey(r.prefix+"dec/", uint64(slot)), w.Bytes()); err != nil {
		r.stats.violations.Add(1)
	}
}

// --- dispatch -------------------------------------------------------------------

func (r *Replica) handleMessage(m inboundMsg) {
	switch m.kind {
	case KindPrepare:
		if msg, err := decodePrepare(m.payload); err == nil {
			r.onPrepare(m.from, msg)
		}
	case KindPromise:
		if msg, err := decodePromise(m.payload); err == nil {
			r.onPromise(m.from, msg)
		}
	case KindAccept:
		if msg, err := decodeAccept(m.payload); err == nil {
			r.onAccept(m.from, msg)
		}
	case KindAccepted:
		if msg, err := decodeAccepted(m.payload); err == nil {
			r.onAccepted(m.from, msg)
		}
	case KindDecide:
		if msg, err := decodeDecide(m.payload); err == nil {
			r.learn(msg.Slot, msg.Cmd)
		}
	case KindHeartbeat:
		if msg, err := decodeHeartbeat(m.payload); err == nil {
			r.onHeartbeat(m.from, msg)
		}
	case KindCatchupReq:
		if msg, err := decodeCatchupReq(m.payload); err == nil {
			r.onCatchupReq(m.from, msg)
		}
	case KindCatchupResp:
		if msg, err := decodeCatchupResp(m.payload); err == nil {
			for _, e := range msg.Entries {
				r.learn(e.Slot, e.Cmd)
			}
		}
	case KindForward:
		if msg, err := decodeForward(m.payload); err == nil {
			r.handlePropose(msg.Cmd)
		}
	}
}

func (r *Replica) send(to types.NodeID, kind uint8, payload []byte) {
	if to == r.self {
		return
	}
	_ = r.ep.Send(to, r.stream, kind, payload)
}

// --- acceptor -----------------------------------------------------------------

func (r *Replica) acceptPrepare(msg prepareMsg) promiseMsg {
	if msg.Ballot.Less(r.promised) {
		return promiseMsg{Ballot: msg.Ballot, OK: false, Promised: r.promised, Decided: r.deliverNext - 1}
	}
	if r.promised.Less(msg.Ballot) {
		r.promised = msg.Ballot
		r.persistPromised()
	}
	out := promiseMsg{Ballot: msg.Ballot, OK: true, Promised: r.promised, Decided: r.deliverNext - 1}
	for slot, e := range r.accepted {
		if slot >= msg.From {
			out.Accepted = append(out.Accepted, e)
		}
	}
	return out
}

func (r *Replica) onPrepare(from types.NodeID, msg prepareMsg) {
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	pm := r.acceptPrepare(msg)
	if pm.OK && (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	r.send(from, KindPromise, encodePromise(pm))
}

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
	return acceptedMsg{Ballot: msg.Ballot, Slot: msg.Slot, OK: true, Promised: r.promised}
}

func (r *Replica) onAccept(from types.NodeID, msg acceptMsg) {
	if r.maxBallotSeen.Less(msg.Ballot) {
		r.maxBallotSeen = msg.Ballot
	}
	if (r.role == roleLeader || r.role == roleCandidate) && r.ballot.Less(msg.Ballot) {
		r.stepDown()
	}
	if cmd, ok := r.decided[msg.Slot]; ok {
		r.send(from, KindDecide, encodeDecide(decideMsg{Slot: msg.Slot, Cmd: cmd}))
		return
	}
	am := r.acceptAccept(msg)
	r.send(from, KindAccepted, encodeAccepted(am))
}

// --- leader ----------------------------------------------------------------------

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
	r.promises = make(map[types.NodeID]promiseMsg, 8)
	r.prepareAge = 0
	r.resetElectionDeadline()

	msg := prepareMsg{Ballot: r.ballot, From: r.deliverNext}
	self := r.acceptPrepare(msg)
	wire := encodePrepare(msg)
	for _, m := range r.windowMembers() {
		r.send(m, KindPrepare, wire)
	}
	r.onPromise(r.self, self)
}

// promiseQuorumsMet checks that the collected promises form a quorum of
// EVERY configuration governing the proposal window — the joint-consensus
// flavor of leadership in a single-log reconfigurable protocol.
func (r *Replica) promiseQuorumsMet() bool {
	for _, cfg := range r.windowConfigs() {
		count := 0
		for _, m := range cfg.Members {
			if _, ok := r.promises[m]; ok {
				count++
			}
		}
		if count < cfg.Quorum() {
			return false
		}
	}
	return true
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
	if r.promiseQuorumsMet() {
		r.becomeLeader()
	}
}

func (r *Replica) becomeLeader() {
	r.role = roleLeader
	r.amLeader.Store(true)
	r.leaderHint.Store(r.self)
	r.inflight = make(map[types.Slot]*slotProgress)
	r.hbCountdown = 0

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
	wEnd := r.windowEnd()
	for slot := from; slot < r.nextSlot; slot++ {
		if cmd, ok := r.decided[slot]; ok {
			r.broadcastWindow(KindDecide, encodeDecide(decideMsg{Slot: slot, Cmd: cmd}))
			continue
		}
		value := types.NoopCommand()
		if e, ok := best[slot]; ok {
			value = e.Cmd
		}
		if slot <= wEnd {
			r.proposeAtSlot(slot, value)
		} else {
			// Beyond the window: the governing configuration could
			// still change; hold the value until the window reaches it.
			r.futureAdopted[slot] = value
		}
	}
	r.drainPending()
}

func (r *Replica) proposeNext(cmd types.Command) {
	slot := r.nextSlot
	r.nextSlot++
	r.proposeAtSlot(slot, cmd)
}

func (r *Replica) proposeAtSlot(slot types.Slot, cmd types.Command) {
	sp := &slotProgress{cmd: cmd, acks: make(map[types.NodeID]bool, 8)}
	r.inflight[slot] = sp
	msg := acceptMsg{Ballot: r.ballot, Slot: slot, Cmd: cmd}
	self := r.acceptAccept(msg)
	if slot >= r.nextSlot {
		r.nextSlot = slot + 1
	}
	wire := encodeAccept(msg)
	for _, m := range r.configFor(slot).Members {
		r.send(m, KindAccept, wire)
	}
	if self.OK && r.configFor(slot).IsMember(r.self) {
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
		return
	}
	sp.acks[from] = true
	r.maybeDecide(msg.Slot, sp)
}

// maybeDecide counts votes against the configuration governing the slot.
func (r *Replica) maybeDecide(slot types.Slot, sp *slotProgress) {
	cfg := r.configFor(slot)
	count := 0
	for _, m := range cfg.Members {
		if sp.acks[m] {
			count++
		}
	}
	if count < cfg.Quorum() {
		return
	}
	delete(r.inflight, slot)
	r.broadcastWindow(KindDecide, encodeDecide(decideMsg{Slot: slot, Cmd: sp.cmd}))
	r.learn(slot, sp.cmd)
	r.drainPending()
}

// broadcastWindow sends to the union of the window's configurations.
func (r *Replica) broadcastWindow(kind uint8, payload []byte) {
	for _, m := range r.windowMembers() {
		r.send(m, kind, payload)
	}
}

func (r *Replica) stepDown() {
	if r.role == roleLeader || r.role == roleCandidate {
		r.stats.stepDowns.Add(1)
	}
	r.role = roleFollower
	r.amLeader.Store(false)
	for _, sp := range r.inflight {
		if !sp.cmd.IsNoop() && len(r.pending) < r.opts.PendingLimit {
			r.pending = append(r.pending, sp.cmd)
		}
	}
	r.inflight = make(map[types.Slot]*slotProgress)
	r.promises = make(map[types.NodeID]promiseMsg)
	r.futureAdopted = make(map[types.Slot]types.Command)
	r.resetElectionDeadline()
}

// --- learner -----------------------------------------------------------------------

func (r *Replica) learn(slot types.Slot, cmd types.Command) {
	if prev, ok := r.decided[slot]; ok {
		if !prev.Equal(cmd) {
			r.stats.violations.Add(1)
		}
		return
	}
	r.decided[slot] = cmd
	r.persistDecided(slot, cmd)
	if len(r.forwarded) > 0 {
		delete(r.forwarded, string(encodeForward(forwardMsg{Cmd: cmd})))
	}
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
			break
		}
		slot := r.deliverNext
		r.deliverNext++
		r.activateIfConfig(slot, cmd)
		r.enqueueDecision(smr.Decision{Slot: slot, Cmd: cmd})
		r.stats.decided.Add(1)
	}
	// The window may have advanced: flush held-over adoptions and fill
	// gaps so the pipeline keeps moving.
	if r.role == roleLeader {
		r.flushWindow()
		r.drainPending()
	}
}

// flushWindow proposes any adopted or missing values for slots that have
// entered the window.
func (r *Replica) flushWindow() {
	wEnd := r.windowEnd()
	for slot := r.deliverNext; slot <= wEnd && slot < r.nextSlot; slot++ {
		if _, ok := r.decided[slot]; ok {
			continue
		}
		if _, ok := r.inflight[slot]; ok {
			continue
		}
		value := types.NoopCommand()
		if v, ok := r.futureAdopted[slot]; ok {
			value = v
			delete(r.futureAdopted, slot)
		}
		r.proposeAtSlot(slot, value)
	}
}

func (r *Replica) onCatchupReq(from types.NodeID, msg catchupReqMsg) {
	to := msg.To
	if limit := msg.From + types.Slot(r.opts.CatchupBatch) - 1; to > limit {
		to = limit
	}
	var resp catchupRespMsg
	for slot := msg.From; slot <= to; slot++ {
		if cmd, ok := r.decided[slot]; ok {
			resp.Entries = append(resp.Entries, decideMsg{Slot: slot, Cmd: cmd})
		}
	}
	if len(resp.Entries) > 0 {
		r.send(from, KindCatchupResp, encodeCatchupResp(resp))
	}
}

// --- proposals -----------------------------------------------------------------------

func (r *Replica) handlePropose(cmd types.Command) {
	r.stats.proposals.Add(1)
	if r.role == roleLeader && r.nextSlot <= r.windowEnd() {
		r.proposeNext(cmd)
		return
	}
	if r.role == roleLeader {
		r.stats.windowStalls.Add(1)
	}
	if len(r.pending) >= r.opts.PendingLimit {
		return
	}
	r.pending = append(r.pending, cmd)
	r.flushPendingToLeader()
}

// drainPending assigns queued proposals to window slots.
func (r *Replica) drainPending() {
	for r.role == roleLeader && len(r.pending) > 0 {
		if r.nextSlot > r.windowEnd() {
			r.stats.windowStalls.Add(1)
			return
		}
		cmd := r.pending[0]
		r.pending = r.pending[1:]
		r.proposeNext(cmd)
	}
}

func (r *Replica) flushPendingToLeader() {
	if r.role != roleFollower || len(r.pending) == 0 {
		return
	}
	hint, _ := r.leaderHint.Load().(types.NodeID)
	if hint == "" || hint == r.self {
		return
	}
	for _, cmd := range r.pending {
		wire := encodeForward(forwardMsg{Cmd: cmd})
		r.send(hint, KindForward, wire)
		if len(r.forwarded) < r.opts.PendingLimit {
			r.forwarded[string(wire)] = 0
		}
	}
	r.pending = r.pending[:0]
}

// reforward re-sends forwarded proposals not learned within a few resend
// intervals: a forward lost on the wire would otherwise drop the proposal
// for good, since nothing else retransmits it. A forward that was only slow
// is proposed twice; the service layer's sessions dedup the second copy.
func (r *Replica) reforward() {
	hint, _ := r.leaderHint.Load().(types.NodeID)
	for wire, age := range r.forwarded {
		if age++; age < 4*r.opts.ResendTicks || hint == "" || hint == r.self {
			r.forwarded[wire] = age
			continue
		}
		r.forwarded[wire] = 0
		r.send(hint, KindForward, []byte(wire))
	}
}

// --- timers --------------------------------------------------------------------------

func (r *Replica) onHeartbeat(from types.NodeID, msg heartbeatMsg) {
	if msg.Ballot.Less(r.maxBallotSeen) {
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
	r.flushPendingToLeader()
}

// eligible reports whether this node may campaign: it must belong to the
// configuration governing the next undecided slot.
func (r *Replica) eligible() bool {
	return r.configFor(r.deliverNext).IsMember(r.self)
}

func (r *Replica) tick() {
	switch r.role {
	case roleLeader:
		r.hbCountdown--
		if r.hbCountdown <= 0 {
			r.hbCountdown = r.opts.HeartbeatEveryTicks
			hb := heartbeatMsg{Ballot: r.ballot, Decided: r.deliverNext - 1}
			r.broadcastWindow(KindHeartbeat, encodeHeartbeat(hb))
		}
		for slot, sp := range r.inflight {
			sp.sinceTicks++
			if sp.sinceTicks >= r.opts.ResendTicks {
				sp.sinceTicks = 0
				wire := encodeAccept(acceptMsg{Ballot: r.ballot, Slot: slot, Cmd: sp.cmd})
				for _, m := range r.configFor(slot).Members {
					r.send(m, KindAccept, wire)
				}
			}
		}
		if !r.eligible() {
			// We have been reconfigured out; abdicate.
			r.stepDown()
		} else {
			r.flushWindow()
			r.drainPending()
		}
	case roleCandidate:
		r.prepareAge++
		if r.prepareAge >= r.opts.ResendTicks {
			r.prepareAge = 0
			wire := encodePrepare(prepareMsg{Ballot: r.ballot, From: r.deliverNext})
			for _, m := range r.windowMembers() {
				r.send(m, KindPrepare, wire)
			}
		}
		r.ticksSinceHB++
		if r.ticksSinceHB >= r.electionDeadline {
			if r.eligible() {
				r.startElection()
			} else {
				r.stepDown()
			}
		}
	default:
		r.ticksSinceHB++
		if r.ticksSinceHB >= r.electionDeadline && r.eligible() {
			r.startElection()
		}
		r.flushPendingToLeader()
		r.reforward()
	}

	r.catchupCooldown--
	if r.catchupCooldown <= 0 && r.maxDecidedSeen >= r.deliverNext {
		r.catchupCooldown = 2
		if target := r.pickCatchupPeer(); target != "" {
			req := catchupReqMsg{From: r.deliverNext, To: r.maxDecidedSeen}
			r.send(target, KindCatchupReq, encodeCatchupReq(req))
		}
	}
}

// pickCatchupPeer prefers the leader, then any member of a known
// configuration, then the seed members (for brand-new joiners).
func (r *Replica) pickCatchupPeer() types.NodeID {
	if hint, _ := r.leaderHint.Load().(types.NodeID); hint != "" && hint != r.self {
		return hint
	}
	candidates := r.windowMembers()
	if len(candidates) == 0 || (len(candidates) == 1 && candidates[0] == r.self) {
		candidates = r.seeds.Members
	}
	others := make([]types.NodeID, 0, len(candidates))
	for _, c := range candidates {
		if c != r.self {
			others = append(others, c)
		}
	}
	if len(others) == 0 {
		return ""
	}
	return others[r.rng.Intn(len(others))]
}
