package inband

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options tunes the engine. Zero values take the defaults below.
type Options struct {
	// Alpha is the reconfiguration window: a configuration decided at
	// slot s governs slots >= s+Alpha, and the pipeline may never run
	// more than Alpha slots past the decided prefix. Default 4.
	Alpha int
	// TickInterval is the timer granularity. Default 2ms.
	TickInterval time.Duration
	// HeartbeatEveryTicks, ElectionTimeoutTicks, ElectionJitterTicks and
	// ResendTicks mirror the static engine's timing knobs.
	HeartbeatEveryTicks  int
	ElectionTimeoutTicks int
	ElectionJitterTicks  int
	ResendTicks          int
	// PendingLimit caps queued proposals. Default 4096.
	PendingLimit int
	// CatchupBatch caps entries per catch-up response. Default 512.
	CatchupBatch int
	// Seed seeds the replica's RNG.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 4
	}
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
	if o.PendingLimit <= 0 {
		o.PendingLimit = 4096
	}
	if o.CatchupBatch <= 0 {
		o.CatchupBatch = 512
	}
	return o
}

// ErrBusy is returned by Propose when the proposal queue is full.
var ErrBusy = fmt.Errorf("inband: proposal queue full")

type role uint8

const (
	roleFollower role = iota + 1
	roleCandidate
	roleLeader
)

// activation marks that Cfg governs slots >= At.
type activation struct {
	At  types.Slot
	Cfg types.Config
}

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

// Stats are the engine's counters.
type Stats struct {
	Decided             int64
	Proposals           int64
	Elections           int64
	StepDowns           int64
	WindowStalls        int64 // proposals deferred because the α-window was full
	InvariantViolations int64
}

// Replica is one node's instance of the in-band reconfigurable engine.
// All replicas share a single continuous log; membership evolves inside it.
type Replica struct {
	self   types.NodeID
	ep     *transport.Endpoint
	stream uint64
	store  storage.Store
	opts   Options
	prefix string
	seeds  types.Config // initial configuration: catch-up bootstrap peers

	inMsg     chan inboundMsg
	proposeCh chan types.Command
	stopCh    chan struct{}
	stopOnce  sync.Once
	loopDone  chan struct{}
	pumpDone  chan struct{}
	started   atomic.Bool

	decCh     chan smr.Decision
	decMu     sync.Mutex
	decQueue  []smr.Decision
	decSignal chan struct{}

	leaderHint atomic.Value // types.NodeID
	amLeader   atomic.Bool
	maxCfgID   atomic.Uint64 // highest activated-or-scheduled config ID

	stats struct {
		decided, proposals, elections, stepDowns, windowStalls, violations atomic.Int64
	}

	// --- event-loop-owned state ---
	rng      *rand.Rand
	promised types.Ballot
	accepted map[types.Slot]acceptedEntry
	decided  map[types.Slot]types.Command

	timeline       []activation // sorted by At; [0] is the initial config at slot 1
	deliverNext    types.Slot
	maxDecidedSeen types.Slot

	role          role
	ballot        types.Ballot
	maxBallotSeen types.Ballot
	promises      map[types.NodeID]promiseMsg
	pending       []types.Command
	forwarded     map[string]int // forward payload -> ticks since sent, until learned
	inflight      map[types.Slot]*slotProgress
	futureAdopted map[types.Slot]types.Command // adopted values beyond the window
	nextSlot      types.Slot

	ticksSinceHB     int
	electionDeadline int
	hbCountdown      int
	prepareAge       int
	catchupCooldown  int
}

var _ smr.Engine = (*Replica)(nil)

// New constructs a replica. Every node in the system — initial members and
// future joiners alike — is constructed with the same initial configuration,
// which seeds the timeline and the catch-up peer set.
func New(initial types.Config, self types.NodeID, ep *transport.Endpoint, store storage.Store, stream uint64, opts Options) (*Replica, error) {
	if _, err := types.NewConfig(initial.ID, initial.Members); err != nil {
		return nil, err
	}
	r := &Replica{
		self:      self,
		ep:        ep,
		stream:    stream,
		store:     store,
		opts:      opts.withDefaults(),
		prefix:    fmt.Sprintf("ib/%d/", stream),
		seeds:     initial.Clone(),
		inMsg:     make(chan inboundMsg, 8192),
		proposeCh: make(chan types.Command, 1024),
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
		forwarded: make(map[string]int),

		futureAdopted: make(map[types.Slot]types.Command),
		timeline:      []activation{{At: 1, Cfg: initial.Clone()}},
		role:          roleFollower,
		deliverNext:   1,
		nextSlot:      1,
	}
	r.leaderHint.Store(types.NodeID(""))
	r.maxCfgID.Store(uint64(initial.ID))
	if err := r.recover(); err != nil {
		return nil, fmt.Errorf("inband recovery: %w", err)
	}
	return r, nil
}

func hashNode(id types.NodeID) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(id); i++ {
		h ^= int64(id[i])
		h *= 1099511628211
	}
	return h
}

// recover reloads acceptor/learner state; the configuration timeline is
// rebuilt from the decided config commands themselves.
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
	accs, err := r.store.Scan(r.prefix + "acc/")
	if err != nil {
		return err
	}
	for _, kv := range accs {
		rd := types.NewReader(kv.Value)
		e := acceptedEntry{Slot: types.Slot(rd.Uvarint()), Ballot: rd.Ballot(), Cmd: types.DecodeCommandFrom(rd)}
		if err := rd.Err(); err != nil {
			return fmt.Errorf("accepted record %s: %w", kv.Key, err)
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
		r.decided[d.Slot] = d.Cmd
		if d.Slot > r.maxDecidedSeen {
			r.maxDecidedSeen = d.Slot
		}
	}
	for slot := range r.decided {
		if slot >= r.nextSlot {
			r.nextSlot = slot + 1
		}
	}
	for slot := range r.accepted {
		if slot >= r.nextSlot {
			r.nextSlot = slot + 1
		}
	}
	return nil
}

// Start implements smr.Engine.
func (r *Replica) Start() error {
	if r.started.Swap(true) {
		return fmt.Errorf("inband: Start called twice")
	}
	r.ep.Handle(r.stream, func(from types.NodeID, _ uint64, kind uint8, payload []byte) {
		select {
		case r.inMsg <- inboundMsg{from: from, kind: kind, payload: payload}:
		case <-r.stopCh:
		default:
		}
	})
	go r.pump()
	go r.loop()
	return nil
}

// Stop implements smr.Engine.
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

// MaxConfigID returns the highest configuration ID this replica has
// activated or scheduled, used by the service to number proposals.
func (r *Replica) MaxConfigID() types.ConfigID {
	return types.ConfigID(r.maxCfgID.Load())
}

// Alpha returns the engine's reconfiguration window.
func (r *Replica) Alpha() int { return r.opts.Alpha }

// Stats returns a snapshot of the counters.
func (r *Replica) Stats() Stats {
	return Stats{
		Decided:             r.stats.decided.Load(),
		Proposals:           r.stats.proposals.Load(),
		Elections:           r.stats.elections.Load(),
		StepDowns:           r.stats.stepDowns.Load(),
		WindowStalls:        r.stats.windowStalls.Load(),
		InvariantViolations: r.stats.violations.Load(),
	}
}

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
			return
		}
	}
}

func (r *Replica) enqueueDecision(d smr.Decision) {
	r.decMu.Lock()
	r.decQueue = append(r.decQueue, d)
	r.decMu.Unlock()
	select {
	case r.decSignal <- struct{}{}:
	default:
	}
}

func (r *Replica) loop() {
	defer close(r.loopDone)
	ticker := time.NewTicker(r.opts.TickInterval)
	defer ticker.Stop()

	if r.seeds.Members[0] == r.self {
		r.electionDeadline = 1
	} else {
		r.resetElectionDeadline()
	}
	r.deliverReady()

	for {
		select {
		case <-r.stopCh:
			return
		case m := <-r.inMsg:
			r.handleMessage(m)
		case cmd := <-r.proposeCh:
			r.handlePropose(cmd)
		case <-ticker.C:
			r.tick()
		}
	}
}

func (r *Replica) resetElectionDeadline() {
	r.electionDeadline = r.opts.ElectionTimeoutTicks + r.rng.Intn(r.opts.ElectionJitterTicks+1)
	r.ticksSinceHB = 0
}

// --- configuration timeline ---------------------------------------------------

// configFor returns the configuration governing slot.
func (r *Replica) configFor(slot types.Slot) types.Config {
	cfg := r.timeline[0].Cfg
	for _, a := range r.timeline[1:] {
		if a.At > slot {
			break
		}
		cfg = a.Cfg
	}
	return cfg
}

// windowEnd returns the last slot the pipeline may currently touch.
func (r *Replica) windowEnd() types.Slot {
	return r.deliverNext - 1 + types.Slot(r.opts.Alpha)
}

// windowConfigs returns the distinct configurations governing the window.
func (r *Replica) windowConfigs() []types.Config {
	var out []types.Config
	last := types.ConfigID(0)
	for slot := r.deliverNext; slot <= r.windowEnd(); slot++ {
		cfg := r.configFor(slot)
		if cfg.ID != last {
			out = append(out, cfg)
			last = cfg.ID
		}
	}
	return out
}

// windowMembers returns the union of members of the window's configurations.
func (r *Replica) windowMembers() []types.NodeID {
	seen := make(map[types.NodeID]bool, 8)
	var out []types.NodeID
	for _, cfg := range r.windowConfigs() {
		for _, m := range cfg.Members {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// activateIfConfig processes a just-delivered command: a valid config
// command decided at slot s schedules its configuration for slots >= s+α.
func (r *Replica) activateIfConfig(slot types.Slot, cmd types.Command) {
	if cmd.Kind != types.CmdReconfig {
		return
	}
	cfg, err := types.DecodeConfig(cmd.Data)
	if err != nil {
		return // deterministically ignored everywhere
	}
	lastID := r.timeline[len(r.timeline)-1].Cfg.ID
	if cfg.ID != lastID+1 {
		return // stale/conflicting proposal: a no-op by the shared rule
	}
	r.timeline = append(r.timeline, activation{At: slot + types.Slot(r.opts.Alpha), Cfg: cfg})
	r.maxCfgID.Store(uint64(cfg.ID))
	// Push the log to the activation point so the new configuration takes
	// effect promptly even without client traffic.
	if r.role == roleLeader {
		for r.nextSlot <= slot+types.Slot(r.opts.Alpha) && r.nextSlot <= r.windowEnd() {
			r.proposeNext(types.NoopCommand())
		}
	}
}
