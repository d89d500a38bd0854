package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one op
// (or one reconfiguration) share an ID; Parent names the enclosing span.
type span struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // since the run's window start
	End    float64 `json:"end_ms"`
}

// snapshot is the counters at one reconfiguration or restart boundary.
type snapshot struct {
	Label    string           `json:"label"`
	At       float64          `json:"at_ms"`
	Counters map[string]int64 `json:"counters"`
}

// tracer keeps spans and counter snapshots in memory until the run ends.
// A nil tracer records nothing, so the timed run pays no tracing cost.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	snaps []snapshot
	cost  time.Duration // time spent recording spans
}

func (t *tracer) at(x time.Time) float64 { return ms(x.Sub(t.t0)) }

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spans...)
}

// op records an op's spans: the whole op from its intended start, the
// dispatch (intended start until its goroutine runs), the wait for the key's
// session, and the client call (send to reply).
func (t *tracer) op(k int, op *opRecord) {
	if t == nil {
		return
	}
	began := time.Now()
	id := fmt.Sprintf("op-%d", k)
	name := "put"
	if op.read {
		name = "read"
	}
	spans := []span{
		{ID: id, Name: name, Start: t.at(op.intended), End: t.at(op.done)},
		{ID: id, Name: "dispatch", Parent: name, Start: t.at(op.intended), End: t.at(op.started)},
	}
	if !op.sent.IsZero() {
		spans = append(spans,
			span{ID: id, Name: "session.wait", Parent: name, Start: t.at(op.started), End: t.at(op.sent)},
			span{ID: id, Name: "client.call", Parent: name, Start: t.at(op.sent), End: t.at(op.done)})
	}
	t.add(spans...)
	t.mu.Lock()
	t.cost += time.Since(began)
	t.mu.Unlock()
}

// reconfig records a reconfiguration: the call, and from its start the
// first decide on a joiner and every joiner serving, where known.
func (t *tracer) reconfig(step int, r reconfigRecord) {
	if t == nil {
		return
	}
	id := fmt.Sprintf("reconfig-%d", step)
	spans := []span{{ID: id, Name: "reconfig", Start: t.at(r.start), End: t.at(r.end)}}
	if r.firstDecide > 0 {
		spans = append(spans, span{ID: id, Name: "reconfig.first_decide", Parent: "reconfig",
			Start: t.at(r.start), End: t.at(r.start.Add(r.firstDecide))})
	}
	if r.serving > 0 {
		spans = append(spans, span{ID: id, Name: "reconfig.serving", Parent: "reconfig",
			Start: t.at(r.start), End: t.at(r.start.Add(r.serving))})
	}
	t.add(spans...)
}

// restart records a follower's restart call until it caught up.
func (t *tracer) restart(r *restartRecord) {
	if t == nil || r.catchup == 0 {
		return
	}
	t.add(span{ID: "restart-" + string(r.node), Name: "restart", Start: t.at(r.start), End: t.at(r.start.Add(r.catchup))})
}

// counters snapshots every module's counters.
func (t *tracer) counters(label string, d *deployment) {
	if t == nil {
		return
	}
	now := time.Now()
	c := readCounters(d)
	flat := map[string]int64{
		"storage.fsyncs":     c.syncs,
		"storage.appends":    c.appends,
		"transport.messages": c.net.MessagesSent,
		"transport.bytes":    c.net.BytesSent,
		"client.attempts":    c.attempts,
		"client.redirects":   c.redirect,
		"client.busy":        c.busy,
		"client.adopts":      c.adopts,
		"probe.timeouts":     int64(c.timeouts),
	}
	for id, st := range c.nodes {
		p := "node." + string(id) + "."
		flat[p+"applied"] = st.Applied
		flat[p+"group_commits"] = st.GroupCommits
		flat[p+"chunks_fetched"] = st.ChunksFetched
		flat[p+"spec_decides"] = st.SpeculativeDecides
		flat[p+"shed_submits"] = st.ShedSubmits
		flat[p+"checkpoints"] = st.CheckpointsPublished
		flat[p+"truncated_slots"] = st.TruncatedSlots
		flat[p+"catchup_fetches"] = st.CatchupFetches
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snaps = append(t.snaps, snapshot{Label: label, At: t.at(now), Counters: flat})
}

// write saves the spans and snapshots as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans     []span     `json:"spans"`
		Snapshots []snapshot `json:"snapshots"`
	}{t.spans, t.snaps})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
