package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"time"

	"ode"
)

// Span names. Each name belongs to one layer: "op" to the benchmark
// itself, "txn.*" to internal/txn (DB.View / DB.Update) and "core.*" to
// internal/core (the Tx methods called inside the callback).
const (
	spOp uint8 = iota
	spCheck
	spView
	spUpdate
	spReadLatest
	spReadVersion
	spUpdateLatest
	spNewVersion
	spVersions
	spAsOf
	spInfo
	spLatest
	spHistory
	spVersionCount
	spExtent
	numSpans
)

var spanNames = [numSpans]string{
	spOp: "op", spCheck: "bench.check", spView: "txn.View", spUpdate: "txn.Update",
	spReadLatest: "core.ReadLatestRaw", spReadVersion: "core.ReadVersionRaw",
	spUpdateLatest: "core.UpdateLatestRaw", spNewVersion: "core.NewVersion",
	spVersions: "core.Versions", spAsOf: "core.AsOf", spInfo: "core.Info",
	spLatest: "core.Latest", spHistory: "core.History",
	spVersionCount: "core.VersionCount", spExtent: "core.Extent",
}

// layer maps a span name to the layer that owns its self time.
func layer(name uint8) string {
	switch n := spanNames[name]; {
	case strings.HasPrefix(n, "txn."):
		return "txn"
	case strings.HasPrefix(n, "core."):
		return "core"
	}
	return "bench"
}

type span struct {
	name       uint8
	parent     int32 // index in the same recorder; -1 for a root
	op         uint32
	start, end int64 // nanoseconds since the recorder's base
}

// spanRec records one client's spans in memory. A nil *spanRec records
// nothing, so the untraced run pays only a nil check per call.
type spanRec struct {
	base  time.Time
	spans []span
	cur   int32 // innermost open span
	op    uint32
}

func newSpanRec(base time.Time) *spanRec { return &spanRec{base: base, cur: -1} }

func (r *spanRec) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// open starts a span that later spans nest in until close.
func (r *spanRec) open(name uint8) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: r.cur, op: r.op, start: r.now()})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

func (r *spanRec) close(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = r.now()
	r.cur = r.spans[i].parent
}

// leaf records a span with no children that started at start (a value
// from now).
func (r *spanRec) leaf(name uint8, start int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, parent: r.cur, op: r.op, start: start, end: r.now()})
}

// spanStats derives per-layer self time and per-name durations from the
// spans of all clients. A span's self time is its duration minus the
// durations of its children.
type spanStats struct {
	ops    int
	selfNS map[string]int64 // layer -> total self time
	byName [numSpans]dist
}

func analyseSpans(recs []*spanRec) spanStats {
	st := spanStats{selfNS: map[string]int64{"bench": 0, "txn": 0, "core": 0}}
	for _, r := range recs {
		self := make([]int64, len(r.spans))
		for i, s := range r.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
			if s.name == spOp {
				st.ops++
			}
			st.byName[s.name] = append(st.byName[s.name], s.end-s.start)
		}
		for i, s := range r.spans {
			st.selfNS[layer(s.name)] += self[i]
		}
	}
	for i := range st.byName {
		slices.Sort(st.byName[i])
	}
	return st
}

func (st spanStats) selfUS(l string) float64 { return mean(float64(st.selfNS[l])/1e3, st.ops) }

// engineTracer is the benchmark's Options.Tracer: it keeps the engine's
// span events of the traced window in memory.
type engineTracer struct {
	mu     sync.Mutex
	on     bool
	events []ode.SpanEvent
}

func (t *engineTracer) TraceSpan(e ode.SpanEvent) {
	t.mu.Lock()
	if t.on {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

func (t *engineTracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// medians returns the median duration of each event kind in
// microseconds.
func (t *engineTracer) medians() map[ode.SpanKind]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKind := map[ode.SpanKind]dist{}
	for _, e := range t.events {
		byKind[e.Kind] = append(byKind[e.Kind], int64(e.Dur))
	}
	med := map[ode.SpanKind]float64{}
	for k, d := range byKind {
		slices.Sort(d)
		med[k] = d.at(50)
	}
	return med
}

// dumpSpans writes every recorded span and engine event to a gzipped CSV.
func dumpSpans(path string, recs []*spanRec, tr *engineTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "client,op,span,name,parent,start_ns,end_ns")
	for c, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", c, s.op, i, spanNames[s.name], s.parent, s.start, s.end)
		}
	}
	fmt.Fprintln(w, "# engine events: kind,tx,dur_ns,batch")
	tr.mu.Lock()
	for _, e := range tr.events {
		fmt.Fprintf(w, "engine.%v,%d,%d,%d\n", e.Kind, e.Tx, int64(e.Dur), e.Batch)
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// cpuShares reads a CPU profile with the toolchain's pprof and returns
// the share of samples whose stack passes through each package prefix
// or, for "gc", through the garbage collector.
func cpuShares(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// gcFrames name the runtime functions at the root of garbage-collector
// work: background marking, mark assists and sweeping.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.sweepone", "runtime.gcStart"}

// parseTraces sums `pprof -traces` output: blocks separated by dashed
// lines, each starting with the sample value and the leaf frame.
func parseTraces(text string) (map[string]float64, error) {
	shares := map[string]float64{"btree": 0, "codec": 0, "gc": 0}
	var total, value time.Duration
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		total += value
		has := func(pred func(string) bool) bool { return slices.ContainsFunc(frames, pred) }
		if has(func(f string) bool { return strings.HasPrefix(f, "ode/internal/btree.") }) {
			shares["btree"] += float64(value)
		}
		if has(func(f string) bool { return strings.HasPrefix(f, "ode/internal/codec.") }) {
			shares["codec"] += float64(value)
		}
		if has(func(f string) bool { return slices.Contains(gcFrames, f) }) {
			shares["gc"] += float64(value)
		}
		frames = frames[:0]
	}
	started := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line, not a sample
			}
			value = v
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}
