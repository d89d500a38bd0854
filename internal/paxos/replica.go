package paxos

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options tunes the engine's timing and pipeline. The zero value is
// normalized to the defaults below by New.
type Options struct {
	// TickInterval is the engine's timer granularity. Default 2ms.
	TickInterval time.Duration
	// HeartbeatEveryTicks is how often the leader beacons. Default 2.
	HeartbeatEveryTicks int
	// ElectionTimeoutTicks is the ticks without a heartbeat before a
	// follower competes for leadership. Default 10.
	ElectionTimeoutTicks int
	// ElectionJitterTicks adds uniform random ticks to the election
	// timeout to avoid dueling proposers. Default 10.
	ElectionJitterTicks int
	// ResendTicks is how long a candidate/leader waits before
	// retransmitting an unanswered prepare or accept. Default 5.
	ResendTicks int
	// MaxInflight caps the phase-2 pipeline depth. Default 64. This is the
	// hard protocol bound on concurrently open slots (it also sizes the
	// re-propose work after a leader change); the working pipeline window a
	// leader actually drives is the smaller Pipeline below.
	MaxInflight int
	// Pipeline is the number of slot windows a leader keeps concurrently
	// in flight when draining its proposal queue. Deeper pipelines overlap
	// more accept rounds but spread queued commands across more, emptier
	// slots — each slot costs a broadcast, a WAL record and a decision
	// delivery, so past a few windows the per-slot overhead wins. Default 4,
	// the winner of the BenchmarkPipelineDepth sweep on the durable WAL
	// backend; clamped to MaxInflight.
	Pipeline int
	// BatchSize is the maximum number of queued commands a leader packs
	// into one consensus slot. Default 16, the winner of the
	// BenchmarkBatchSizeDefault sweep on the durable WAL backend (batching
	// decides how many commands share one group-commit fsync); the A1
	// ablation sweeps it explicitly.
	BatchSize int
	// PendingLimit caps queued proposals awaiting a leader or a pipeline
	// slot; beyond it Propose returns ErrBusy. Default 4096.
	PendingLimit int
	// CatchupBatch is the max decided entries per catch-up response.
	// Default 512.
	CatchupBatch int
	// EnableLeaseReads turns on leader leases: ReadIndex answers without a
	// quorum round while a quorum-acked heartbeat lease is current, and
	// acceptors suppress promises to rival candidates inside the leader's
	// liveness window. Off by default; safety additionally assumes bounded
	// clock-rate skew (see LeaseTicks margin).
	EnableLeaseReads bool
	// LeaseTicks is the lease term granted by one quorum-acked heartbeat,
	// in ticks from its send time; a 25% margin is subtracted to absorb
	// clock-rate skew. Default ElectionTimeoutTicks/2. Terms longer than
	// the election timeout are unsafe at this layer and rely entirely on
	// the composition layer's wedge fencing.
	LeaseTicks int
	// Seed seeds the replica's private RNG (election jitter).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.TickInterval <= 0 {
		o.TickInterval = 2 * time.Millisecond
	}
	if o.HeartbeatEveryTicks <= 0 {
		o.HeartbeatEveryTicks = 2
	}
	if o.ElectionTimeoutTicks <= 0 {
		o.ElectionTimeoutTicks = 10
	}
	if o.ElectionJitterTicks <= 0 {
		o.ElectionJitterTicks = 10
	}
	if o.ResendTicks <= 0 {
		o.ResendTicks = 5
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 4
	}
	if o.Pipeline > o.MaxInflight {
		o.Pipeline = o.MaxInflight
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.PendingLimit <= 0 {
		o.PendingLimit = 4096
	}
	if o.CatchupBatch <= 0 {
		o.CatchupBatch = 512
	}
	if o.LeaseTicks <= 0 {
		o.LeaseTicks = o.ElectionTimeoutTicks / 2
		if o.LeaseTicks < 1 {
			o.LeaseTicks = 1
		}
	}
	return o
}

// ErrBusy is returned by Propose when the engine's proposal queue is full.
var ErrBusy = fmt.Errorf("paxos: proposal queue full")

type role uint8

const (
	roleFollower role = iota + 1
	roleCandidate
	roleLeader
)

type inboundMsg struct {
	from    types.NodeID
	kind    uint8
	payload []byte
}

type slotProgress struct {
	cmd        types.Command
	acks       map[types.NodeID]bool
	sinceTicks int
}

// deferredSend is an outbound message held in the burst outbox until the
// burst's staged writes are durable. An empty `to` means broadcast.
type deferredSend struct {
	to      types.NodeID
	kind    uint8
	payload []byte
}

// Stats are the engine's monotone counters, for experiments and tests.
type Stats struct {
	Decided             int64
	Proposals           int64
	Elections           int64
	StepDowns           int64
	CatchupRequests     int64
	InvariantViolations int64
	// DroppedInbound counts inbound protocol messages discarded because the
	// inbox was full. The protocol tolerates loss, but a nonzero value means
	// the event loop is saturated and peers are being ignored.
	DroppedInbound int64
	// ReadRounds counts completed read-index confirmation rounds; comparing
	// it against served reads shows the probe batching factor.
	ReadRounds int64
	// TruncatedSlots counts log slots released by TruncateBelow over the
	// replica's lifetime.
	TruncatedSlots int64
	// RetainedSlots is a gauge: decided log entries currently held in
	// memory (and on disk). With checkpoints on it stays bounded by the
	// checkpoint interval plus the truncation margin.
	RetainedSlots int64
	// LeaseReads counts reads answered locally under a valid leader lease.
	LeaseReads int64
	// GroupCommits counts event-loop bursts that ended in a group-commit
	// Sync; comparing it against Decided shows the fsync amortization the
	// pipeline achieves (see endBurst).
	GroupCommits int64
}

// Replica is one member's engine instance for a single, fixed configuration.
// It implements smr.Engine.
type Replica struct {
	self   types.NodeID
	cfg    types.Config
	ep     *transport.Endpoint
	stream uint64
	store  storage.Store
	opts   Options
	prefix string

	inMsg     chan inboundMsg
	proposeCh chan types.Command
	readCh    chan readRequest
	ctrlCh    chan func()
	stopCh    chan struct{}
	stopOnce  sync.Once
	loopDone  chan struct{}
	pumpDone  chan struct{}
	started   atomic.Bool

	// decision pump: the event loop appends under decMu; the pump drains
	// into decCh so slow consumers never stall the protocol.
	decCh     chan smr.Decision
	decMu     sync.Mutex
	decQueue  []smr.Decision
	decSignal chan struct{}

	// cross-goroutine views
	leaderHint atomic.Value // types.NodeID
	amLeader   atomic.Bool

	stats struct {
		decided, proposals, elections, stepDowns, catchups, violations atomic.Int64
		droppedInbound, readRounds, leaseReads, groupSyncs             atomic.Int64
		truncated, retained                                            atomic.Int64
	}
	lastDropWarn atomic.Int64 // unix nanos of the last overflow warning

	// Progress mirrors: atomic copies of the loop-owned frontier state so
	// the composition layer's housekeeping can probe "how far behind am I"
	// in O(1) without a message round or a channel hop (see Progress).
	progDelivered atomic.Int64
	progMaxSeen   atomic.Int64
	progTrunc     atomic.Int64
	ckptNeeded    atomic.Bool

	// Truncation requests: TruncateBelow raises truncReq to the highest
	// floor asked for and pokes truncSig (one slot, so requests made while
	// the loop is busy coalesce into one release to the highest floor).
	truncReq atomic.Uint64
	truncSig chan struct{}

	// --- state below is owned exclusively by the event loop goroutine ---
	rng      *rand.Rand
	promised types.Ballot
	accepted map[types.Slot]acceptedEntry
	decided  map[types.Slot]types.Command

	deliverNext    types.Slot // next slot to hand to the application
	maxDecidedSeen types.Slot // highest slot known decided anywhere
	truncatedBelow types.Slot // slots <= this are released (checkpointed)

	role          role
	ballot        types.Ballot // owned ballot while candidate/leader
	maxBallotSeen types.Ballot
	promises      map[types.NodeID]promiseMsg
	pending       []types.Command
	inflight      map[types.Slot]*slotProgress
	nextSlot      types.Slot

	ticksSinceHB     int
	electionDeadline int
	hbCountdown      int
	prepareAge       int
	catchupCooldown  int

	// group commit (loop-owned): when the store can stage writes
	// (storage.BufferedStore), each loop wakeup drains a burst of events
	// with persistence buffered and replies and decisions held back, then
	// makes the whole burst durable with one Sync before anything leaves
	// the replica (see endBurst). This is what lets Pipeline > 1 overlap
	// durable slots instead of serializing one fsync per accept.
	bstore        storage.BufferedStore
	inBurst       bool
	burstDirty    bool
	outbox        []deferredSend
	heldDecisions []smr.Decision

	// read fast path (see read.go)
	curProbe      *probeRound
	nextReads     []func(index types.Slot, err error)
	probeSeq      uint64
	electionFloor types.Slot
	leaseUntil    time.Time
	hbSeq         uint64
	hbSent        map[uint64]time.Time
	hbAcks        map[uint64]map[types.NodeID]bool
}

var _ smr.Engine = (*Replica)(nil)

// New constructs a replica of the static engine for cfg on node self.
// The stream number isolates this instance's traffic on the shared endpoint;
// storage keys are namespaced by it as well.
//
// Engine start is deliberately decoupled from application-state readiness:
// a replica needs nothing beyond its own promised/accepted/decided records
// to vote, accept and decide, so the composition layer boots a successor
// engine speculatively while the state snapshot is still streaming in. The
// engine's records are durable in their own right (and recovered here by
// recover()), which is what lets slots decided before a crash mid-transfer
// survive and be redelivered after restart.
func New(cfg types.Config, self types.NodeID, ep *transport.Endpoint, store storage.Store, stream uint64, opts Options) (*Replica, error) {
	if !cfg.IsMember(self) {
		return nil, fmt.Errorf("%w: %s not in %s", smr.ErrNotMember, self, cfg)
	}
	r := &Replica{
		self:      self,
		cfg:       cfg.Clone(),
		ep:        ep,
		stream:    stream,
		store:     store,
		opts:      opts.withDefaults(),
		prefix:    fmt.Sprintf("pxs/%d/", stream),
		inMsg:     make(chan inboundMsg, 8192),
		proposeCh: make(chan types.Command, 1024),
		readCh:    make(chan readRequest, 4096),
		ctrlCh:    make(chan func(), 16),
		truncSig:  make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		loopDone:  make(chan struct{}),
		pumpDone:  make(chan struct{}),
		decCh:     make(chan smr.Decision, 1024),
		decSignal: make(chan struct{}, 1),
		rng:       rand.New(rand.NewSource(opts.Seed ^ int64(stream) ^ hashNode(self))),
		accepted:  make(map[types.Slot]acceptedEntry),
		decided:   make(map[types.Slot]types.Command),
		promises:  make(map[types.NodeID]promiseMsg),
		inflight:  make(map[types.Slot]*slotProgress),
		hbSent:    make(map[uint64]time.Time),
		hbAcks:    make(map[uint64]map[types.NodeID]bool),
		role:      roleFollower,

		deliverNext: 1,
		nextSlot:    1,
	}
	r.leaderHint.Store(types.NodeID(""))
	if bs, ok := store.(storage.BufferedStore); ok {
		r.bstore = bs
	}
	if err := r.recover(); err != nil {
		return nil, fmt.Errorf("paxos recovery: %w", err)
	}
	return r, nil
}

// hashNode folds a node ID into an RNG seed component.
func hashNode(id types.NodeID) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(id); i++ {
		h ^= int64(id[i])
		h *= 1099511628211
	}
	return h
}

// recover reloads acceptor and learner state from stable storage, so a
// restarted process keeps its promises and redelivers its decided prefix.
func (r *Replica) recover() error {
	if raw, ok, err := r.store.Get(r.prefix + "promised"); err != nil {
		return err
	} else if ok {
		rd := types.NewReader(raw)
		r.promised = rd.Ballot()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("promised record: %w", err)
		}
		r.maxBallotSeen = r.promised
	}
	if raw, ok, err := r.store.Get(r.prefix + "trunc"); err != nil {
		return err
	} else if ok {
		rd := types.NewReader(raw)
		r.truncatedBelow = types.Slot(rd.Uvarint())
		if err := rd.Err(); err != nil {
			return fmt.Errorf("truncation record: %w", err)
		}
		// Slots <= the floor were released after a durable checkpoint: the
		// application recovers them from the checkpoint, not the log. Any
		// acc/dec records below the floor that the deletes had not reached
		// before the crash are skipped during the scans below and swept.
		r.deliverNext = r.truncatedBelow + 1
		r.nextSlot = r.truncatedBelow + 1
		r.maxDecidedSeen = r.truncatedBelow
	}
	accs, err := r.store.Scan(r.prefix + "acc/")
	if err != nil {
		return err
	}
	var stale []string
	for _, kv := range accs {
		rd := types.NewReader(kv.Value)
		e := acceptedEntry{
			Slot:   types.Slot(rd.Uvarint()),
			Ballot: rd.Ballot(),
			Cmd:    types.DecodeCommandFrom(rd),
		}
		if err := rd.Err(); err != nil {
			return fmt.Errorf("accepted record %s: %w", kv.Key, err)
		}
		if e.Slot <= r.truncatedBelow {
			stale = append(stale, kv.Key)
			continue
		}
		r.accepted[e.Slot] = e
	}
	decs, err := r.store.Scan(r.prefix + "dec/")
	if err != nil {
		return err
	}
	for _, kv := range decs {
		rd := types.NewReader(kv.Value)
		d := decideMsg{Slot: types.Slot(rd.Uvarint()), Cmd: types.DecodeCommandFrom(rd)}
		if err := rd.Err(); err != nil {
			return fmt.Errorf("decided record %s: %w", kv.Key, err)
		}
		if d.Slot <= r.truncatedBelow {
			stale = append(stale, kv.Key)
			continue
		}
		r.decided[d.Slot] = d.Cmd
		if d.Slot > r.maxDecidedSeen {
			r.maxDecidedSeen = d.Slot
		}
	}
	if s := types.Slot(len(r.decided)); s > 0 {
		// nextSlot must clear everything we might know about.
		for slot := range r.decided {
			if slot >= r.nextSlot {
				r.nextSlot = slot + 1
			}
		}
	}
	for slot := range r.accepted {
		if slot >= r.nextSlot {
			r.nextSlot = slot + 1
		}
	}
	if err := r.sweepReleased(stale); err != nil {
		return fmt.Errorf("sweep released records: %w", err)
	}
	r.stats.retained.Store(int64(len(r.decided)))
	r.publishProgress()
	return nil
}

// sweepReleased deletes acc/dec records at or below the recovered floor: a
// crash mid-truncation leaves them behind (the floor is persisted first),
// and unswept they would live on in the store's state and in every WAL
// compaction checkpoint. The deletes share one burst's group commit.
func (r *Replica) sweepReleased(keys []string) error {
	r.beginBurst()
	defer r.endBurst()
	for _, key := range keys {
		if err := r.deleteDurable(key); err != nil {
			return err
		}
	}
	return nil
}

// Start implements smr.Engine.
func (r *Replica) Start() error {
	if r.started.Swap(true) {
		return fmt.Errorf("paxos: Start called twice")
	}
	r.ep.Handle(r.stream, func(from types.NodeID, _ uint64, kind uint8, payload []byte) {
		select {
		case r.inMsg <- inboundMsg{from: from, kind: kind, payload: payload}:
		case <-r.stopCh:
		default:
			// Inbox overflow: drop, like the network would — but count it,
			// and warn (rate-limited) because a saturated event loop is an
			// operational problem the protocol merely tolerates.
			r.warnDropped(r.stats.droppedInbound.Add(1))
		}
	})
	go r.pump()
	go r.loop()
	return nil
}

// Stop implements smr.Engine. It is idempotent; after it returns no further
// decisions are delivered and the decision channel is closed.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopCh)
		r.ep.Handle(r.stream, nil)
	})
	if r.started.Load() {
		<-r.loopDone
		<-r.pumpDone
	}
}

// Propose implements smr.Engine.
func (r *Replica) Propose(cmd types.Command) error {
	select {
	case <-r.stopCh:
		return smr.ErrStopped
	default:
	}
	select {
	case r.proposeCh <- cmd:
		return nil
	case <-r.stopCh:
		return smr.ErrStopped
	default:
		return ErrBusy
	}
}

// Decisions implements smr.Engine.
func (r *Replica) Decisions() <-chan smr.Decision { return r.decCh }

// Leader implements smr.Engine.
func (r *Replica) Leader() (types.NodeID, bool) {
	hint, _ := r.leaderHint.Load().(types.NodeID)
	return hint, r.amLeader.Load()
}

// Config returns the fixed configuration this engine serves.
func (r *Replica) Config() types.Config { return r.cfg.Clone() }

// Stats returns a snapshot of the engine's counters.
func (r *Replica) Stats() Stats {
	return Stats{
		Decided:             r.stats.decided.Load(),
		Proposals:           r.stats.proposals.Load(),
		Elections:           r.stats.elections.Load(),
		StepDowns:           r.stats.stepDowns.Load(),
		CatchupRequests:     r.stats.catchups.Load(),
		InvariantViolations: r.stats.violations.Load(),
		DroppedInbound:      r.stats.droppedInbound.Load(),
		ReadRounds:          r.stats.readRounds.Load(),
		LeaseReads:          r.stats.leaseReads.Load(),
		GroupCommits:        r.stats.groupSyncs.Load(),
		TruncatedSlots:      r.stats.truncated.Load(),
		RetainedSlots:       r.stats.retained.Load(),
	}
}

// warnDropped logs at most one inbox-overflow warning per second.
func (r *Replica) warnDropped(total int64) {
	now := time.Now().UnixNano()
	last := r.lastDropWarn.Load()
	if now-last < int64(time.Second) {
		return
	}
	if r.lastDropWarn.CompareAndSwap(last, now) {
		log.Printf("paxos: %s stream %d inbox overflow, dropping inbound messages (%d dropped so far)",
			r.self, r.stream, total)
	}
}

// pump moves queued decisions into the public channel so that a slow
// consumer never blocks the protocol loop.
func (r *Replica) pump() {
	defer close(r.pumpDone)
	defer close(r.decCh)
	for {
		r.decMu.Lock()
		batch := r.decQueue
		r.decQueue = nil
		r.decMu.Unlock()
		for _, d := range batch {
			select {
			case r.decCh <- d:
			case <-r.stopCh:
				return
			}
		}
		select {
		case <-r.decSignal:
		case <-r.stopCh:
			// Drain anything enqueued concurrently with stop; consumers
			// may still be reading until the channel closes.
			r.decMu.Lock()
			rest := r.decQueue
			r.decQueue = nil
			r.decMu.Unlock()
			for _, d := range rest {
				select {
				case r.decCh <- d:
				default:
					return
				}
			}
			return
		}
	}
}

func (r *Replica) enqueueDecision(d smr.Decision) {
	if r.inBurst {
		// Decisions must not reach the application before the burst's group
		// commit: the leader's own accept is part of the deciding quorum,
		// and it is only staged until endBurst syncs.
		r.heldDecisions = append(r.heldDecisions, d)
		return
	}
	r.decMu.Lock()
	r.decQueue = append(r.decQueue, d)
	r.decMu.Unlock()
	select {
	case r.decSignal <- struct{}{}:
	default:
	}
}

// loop is the single-threaded protocol engine; all Paxos state is owned here.
func (r *Replica) loop() {
	// LIFO: loopDone closes first, then finishReads drains, so a ReadIndex
	// racing with shutdown can detect the closed loop and self-drain (see
	// read.go) without ever losing a callback.
	defer r.finishReads()
	defer close(r.loopDone)
	ticker := time.NewTicker(r.opts.TickInterval)
	defer ticker.Stop()

	// The lexically smallest member starts an election on its first tick
	// so fresh configurations get a leader without waiting out a timeout;
	// everyone else uses the randomized timeout.
	if r.cfg.Members[0] == r.self {
		r.electionDeadline = 1
	} else {
		r.resetElectionDeadline()
	}

	// Redeliver the recovered decided prefix to the application.
	r.deliverReady()

	for {
		select {
		case <-r.stopCh:
			return
		case m := <-r.inMsg:
			r.beginBurst()
			r.handleMessage(m)
			r.drainBurst(burstBudget - 1)
			r.endBurst()
		case cmd := <-r.proposeCh:
			r.beginBurst()
			r.handlePropose(cmd)
			r.drainBurst(burstBudget - 1)
			r.endBurst()
		case req := <-r.readCh:
			r.beginBurst()
			r.handleRead(req)
			r.drainBurst(burstBudget - 1)
			r.endBurst()
		case fn := <-r.ctrlCh:
			r.beginBurst()
			fn()
			r.drainBurst(burstBudget - 1)
			r.endBurst()
		case <-r.truncSig:
			r.beginBurst()
			r.truncateBelow(types.Slot(r.truncReq.Load()))
			r.drainBurst(burstBudget - 1)
			r.endBurst()
		case <-ticker.C:
			r.beginBurst()
			r.tick()
			r.endBurst()
		}
		r.publishProgress()
	}
}

// burstBudget caps how many queued events one group-commit burst absorbs
// before it must sync and release its replies; it bounds both the latency
// a staged write can sit unfsynced and the outbox growth.
const burstBudget = 256

// beginBurst opens a group-commit burst when the store supports staged
// writes. With a plain store every write is individually durable and the
// loop behaves exactly as a classic one-event-at-a-time engine.
func (r *Replica) beginBurst() {
	if r.bstore != nil {
		r.inBurst = true
	}
}

// drainBurst greedily absorbs events that are already queued into the open
// burst, so their persistence shares the single group-commit fsync. It
// never blocks: the burst ends as soon as the backlog (or budget) runs out.
func (r *Replica) drainBurst(budget int) {
	if !r.inBurst {
		return
	}
	for budget > 0 {
		select {
		case m := <-r.inMsg:
			r.handleMessage(m)
		case cmd := <-r.proposeCh:
			r.handlePropose(cmd)
		case req := <-r.readCh:
			r.handleRead(req)
		default:
			return
		}
		budget--
	}
}

// endBurst is the group-commit barrier: one Sync makes every write staged
// during the burst durable, and only then do the burst's protocol messages
// and decisions leave the replica — promises and votes may not be sent, and
// decisions may not reach the application, before the state backing them is
// stable. If the sync fails nothing is released: unsynced state must not be
// externalized, and peers retransmit exactly as they would for lost
// messages. (In practice a failed sync here means the store was closed
// under a stopping replica.)
func (r *Replica) endBurst() {
	if !r.inBurst {
		return
	}
	r.inBurst = false
	if r.burstDirty {
		r.burstDirty = false
		if err := r.store.Sync(); err != nil {
			if err != storage.ErrStoreClosed {
				r.stats.violations.Add(1)
			}
			r.outbox = r.outbox[:0]
			r.heldDecisions = r.heldDecisions[:0]
			return
		}
		r.stats.groupSyncs.Add(1)
	}
	for _, m := range r.outbox {
		if m.to == "" {
			r.ep.Broadcast(r.cfg.Members, r.stream, m.kind, m.payload)
		} else {
			_ = r.ep.Send(m.to, r.stream, m.kind, m.payload)
		}
	}
	r.outbox = r.outbox[:0]
	for _, d := range r.heldDecisions {
		r.enqueueDecision(d)
	}
	r.heldDecisions = r.heldDecisions[:0]
}

func (r *Replica) resetElectionDeadline() {
	r.electionDeadline = r.opts.ElectionTimeoutTicks + r.rng.Intn(r.opts.ElectionJitterTicks+1)
	r.ticksSinceHB = 0
}

// --- log truncation & progress ---------------------------------------------

// Progress is an O(1), lock-free snapshot of the engine's log frontier. The
// composition layer's housekeeping reads it to decide in one probe whether
// this member is lagging far enough to fetch a checkpoint instead of walking
// the gap slot by slot.
type Progress struct {
	// Delivered is the highest contiguously decided slot handed to the
	// application.
	Delivered types.Slot
	// MaxDecidedSeen is the highest slot known to be decided anywhere
	// (from heartbeats, promises and catch-up responses), so
	// MaxDecidedSeen - Delivered is the decision gap.
	MaxDecidedSeen types.Slot
	// TruncatedBelow is the local truncation floor: slots <= it have been
	// released and cannot be served or re-voted.
	TruncatedBelow types.Slot
	// CheckpointNeeded reports that a peer redirected a catch-up request
	// below its truncation floor: the missing prefix no longer exists in
	// any reachable log and only a checkpoint install can fill it.
	CheckpointNeeded bool
}

// Progress returns the current frontier snapshot. Safe from any goroutine.
func (r *Replica) Progress() Progress {
	return Progress{
		Delivered:        types.Slot(r.progDelivered.Load()),
		MaxDecidedSeen:   types.Slot(r.progMaxSeen.Load()),
		TruncatedBelow:   types.Slot(r.progTrunc.Load()),
		CheckpointNeeded: r.ckptNeeded.Load(),
	}
}

// publishProgress refreshes the atomic mirrors from the loop-owned state.
// Called by the event loop after each wakeup (and once from recovery, before
// the loop starts).
func (r *Replica) publishProgress() {
	r.progDelivered.Store(int64(r.deliverNext - 1))
	r.progMaxSeen.Store(int64(r.maxDecidedSeen))
	r.progTrunc.Store(int64(r.truncatedBelow))
}

// post runs fn on the event-loop goroutine. It blocks until the control
// queue has room or the replica stops; fn never runs after Stop.
func (r *Replica) post(fn func()) {
	select {
	case r.ctrlCh <- fn:
	case <-r.stopCh:
	}
}

// TruncateBelow releases learner and acceptor state for all slots <= floor.
// The caller (the composition layer) must guarantee that a checkpoint
// covering those slots is durable and quorum-acknowledged first: after
// truncation this replica refuses phase-2 votes at released slots and
// answers catch-up requests for them with a checkpoint redirect instead of
// entries. The floor is clamped to the delivered prefix — undelivered slots
// are never truncated. Safe from any goroutine and never blocks: the loop
// applies the highest floor requested so far, asynchronously, so a caller
// holding its own lock cannot wedge against a busy event loop.
func (r *Replica) TruncateBelow(floor types.Slot) {
	for {
		cur := r.truncReq.Load()
		if uint64(floor) <= cur || r.truncReq.CompareAndSwap(cur, uint64(floor)) {
			break
		}
	}
	select {
	case r.truncSig <- struct{}{}:
	default: // a release is already pending; it reads the new maximum
	}
}

// SkipTo installs a checkpoint's base index: the application has restored
// state covering every slot <= base, so delivery resumes at base+1 and the
// skipped slots are released exactly as TruncateBelow would. Used by a
// lagging member after a checkpoint fetch. Safe from any goroutine.
func (r *Replica) SkipTo(base types.Slot) {
	r.post(func() { r.skipTo(base) })
}

// truncateBelow is the loop-side release of slots (truncatedBelow, floor].
func (r *Replica) truncateBelow(floor types.Slot) {
	if floor >= r.deliverNext {
		floor = r.deliverNext - 1
	}
	if floor <= r.truncatedBelow {
		return
	}
	r.advanceFloor(floor)
	r.publishProgress()
}

// skipTo is the loop-side checkpoint install: jump the delivery cursor to
// base+1 and release everything at or below base.
func (r *Replica) skipTo(base types.Slot) {
	if base < r.deliverNext {
		// Already past the checkpoint; nothing to skip. Still clear the
		// checkpoint-needed latch: the fetch that triggered it completed.
		r.ckptNeeded.Store(false)
		return
	}
	r.deliverNext = base + 1
	if base > r.maxDecidedSeen {
		r.maxDecidedSeen = base
	}
	if r.nextSlot <= base {
		r.nextSlot = base + 1
	}
	r.advanceFloor(base)
	r.ckptNeeded.Store(false)
	r.publishProgress()
	// Decisions above the base may already be decided and contiguous now.
	r.deliverReady()
}

// advanceFloor raises the truncation floor to floor and releases slots
// (old floor, floor]: they leave the in-memory maps and their durable
// records are deleted. The floor record is written first. Inside a burst
// the floor and every delete are staged and made durable by the burst's one
// group-commit Sync; since the store is durable as a prefix, a crash can
// keep the floor without some deletes (recovery sweeps those) but never a
// delete without the floor, which would forget accepted and decided values
// above the durable floor. For the same reason the records stay when the
// floor could not be written, and a failed delete is not an error.
func (r *Replica) advanceFloor(floor types.Slot) {
	prev := r.truncatedBelow
	r.truncatedBelow = floor
	w := types.NewWriter(8)
	w.Uvarint(uint64(floor))
	durable := r.setDurable(r.prefix+"trunc", w.Bytes()) == nil
	if !durable {
		r.stats.violations.Add(1)
	}
	for slot := prev + 1; slot <= floor; slot++ {
		if _, ok := r.decided[slot]; ok {
			delete(r.decided, slot)
			if durable {
				_ = r.deleteDurable(storage.SlotKey(r.prefix+"dec/", uint64(slot)))
			}
		}
		if _, ok := r.accepted[slot]; ok {
			delete(r.accepted, slot)
			if durable {
				_ = r.deleteDurable(storage.SlotKey(r.prefix+"acc/", uint64(slot)))
			}
		}
	}
	r.stats.truncated.Add(int64(floor - prev))
	r.stats.retained.Store(int64(len(r.decided)))
}

// TruncatedFloor reads the persisted truncation floor of a stream without
// instantiating a replica — a recovery-planning helper for the composition
// layer (a corrupt snapshot can only fall back to full log replay when the
// log still starts at slot 1).
func TruncatedFloor(store storage.Store, stream uint64) (types.Slot, error) {
	raw, ok, err := store.Get(fmt.Sprintf("pxs/%d/", stream) + "trunc")
	if err != nil || !ok {
		return 0, err
	}
	rd := types.NewReader(raw)
	floor := types.Slot(rd.Uvarint())
	if err := rd.Err(); err != nil {
		return 0, fmt.Errorf("truncation record: %w", err)
	}
	return floor, nil
}
