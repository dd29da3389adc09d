// Command perfbench is the repository's benchmark. It runs one workload
// against the public ode API with two closed-loop clients, checks every
// output, and prints each metric by name with its unit; the last line of
// standard output is the result as one JSON object. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"ode"
)

// setupRuns is how many times an untraced run sets its workload up; it
// reports the median set-up time and measures on the last database.
const setupRuns = 3

// metric is one reported value. N is the sample count behind it, where
// there is one, and Note says how a tail percentile was chosen.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// result is everything one run measured, with the envelope it ran in.
type result struct {
	Envelope  map[string]any    `json:"envelope"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs a traced window too and prints the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for databases, results, spans and profiles")
	commit := flag.String("commit", "unknown", "commit the benchmarked sources come from")
	flag.Parse()

	s, err := specByName(*workload)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %v\n", s.name, *seed, err)
		os.Exit(1)
	}
	res.Envelope["commit"] = *commit
	if err := report(os.Stdout, s, res, *trace == 1, *out, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %v\n", s.name, *seed, err)
		os.Exit(1)
	}
}

// run sets the workload up and measures it for d. Untraced, it sets up
// setupRuns times and reports the end-to-end metrics. Traced, it reports
// the per-layer metrics (see runTraced).
func run(s spec, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	data := filepath.Join(out, fmt.Sprintf("db-%d", os.Getpid()))
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(data)
	res := &result{Envelope: envelope(s, seed, d, traced, data), Metrics: map[string]metric{}}
	if traced {
		return res, runTraced(s, seed, d, out, data, res)
	}
	var setupCPU, setupWall []float64
	var b *bench
	for k := 0; k < setupRuns; k++ {
		if b != nil {
			if err := b.db.Close(); err != nil {
				return nil, err
			}
			// Collect the discarded database's memory, so peak RSS reflects
			// one set-up and the window rather than collector timing.
			b = nil
			runtime.GC()
		}
		t0, c0 := time.Now(), cpuTime()
		var err error
		if b, err = setup(s, seed, filepath.Join(data, strconv.Itoa(k)), nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	heap := engineHeapMiB(b)
	w, err := b.measure(d, nil, "")
	if err != nil {
		b.db.Close()
		return nil, err
	}
	amp, err := b.finish()
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = w.attempted, w.failed
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed operation: %v\n", w.firstErr)
	}
	m := res.Metrics
	// Each figure of the window is the median of its values over the
	// sub-windows; the last one also holds the overshoot past the deadline.
	var ops, cpuPerOp []float64
	for k := range w.lat {
		n, secs := 0, w.part.Seconds()
		for _, d := range w.lat[k] {
			n += len(d)
		}
		if k == subWindows-1 {
			secs = (w.elapsed - (subWindows-1)*w.part).Seconds()
		}
		ops = append(ops, float64(n)/secs)
		cpuPerOp = append(cpuPerOp, float64(w.cpuAt[k+1]-w.cpuAt[k])/1e3/float64(max(n, 1)))
	}
	m["ops_per_s"] = metric{Value: medianOf(ops), Unit: "1/s", N: w.ops, Note: fmt.Sprintf("sub-windows %.1f pooled %.1f", ops, float64(w.ops)/w.elapsed.Seconds())}
	m["cpu_us_per_op"] = metric{Value: medianOf(cpuPerOp), Unit: "us", N: w.ops, Note: fmt.Sprintf("sub-windows %.2f", cpuPerOp)}
	for cl, name := range map[class]string{classRead: "read", classWrite: "write", classScan: "scan"} {
		var parts []dist
		for k := range w.lat {
			parts = append(parts, w.lat[k][cl])
		}
		ps := summarizeParts(parts)
		var all dist
		for _, d := range parts {
			all = append(all, d...)
		}
		pooled := summarize(all)
		m[name+"_p50_us"] = metric{Value: ps.P50, Unit: "us", N: ps.N, Note: fmt.Sprintf("sub-windows %.1f pooled %.1f", ps.P50s, pooled.P50)}
		m[name+"_p99_us"] = metric{Value: ps.Tail, Unit: "us", N: ps.N,
			Note: fmt.Sprintf("p%g, at least %d samples beyond in each sub-window; sub-windows %.1f pooled %.1f", ps.TailPct, ps.Beyond, ps.Tails, pooled.Tail)}
	}
	m["space_amp"] = metric{Value: amp, Unit: "ratio"}
	m["live_heap_mb"] = metric{Value: heap, Unit: "MiB"}
	m["peak_rss_mb"] = metric{Value: peakRSSMiB(), Unit: "MiB"}
	m["setup_s"] = metric{Value: medianOf(setupCPU), Unit: "s", N: len(setupCPU), Note: fmt.Sprintf("CPU seconds of each set-up %.3f", setupCPU)}
	m["setup_wall_s"] = metric{Value: medianOf(setupWall), Unit: "s", N: len(setupWall), Note: fmt.Sprintf("set-ups %.3f", setupWall)}
	m["fail_ratio"] = metric{Value: float64(w.failed) / float64(max(w.attempted, 1)), Unit: "ratio", N: w.attempted}
	return res, nil
}

// engineHeapMiB is the Go heap still live after a full collection once
// set-up is done, less the benchmark's own copy of every object's last
// content. It is taken before the timed window, so it does not follow how
// many versions the window's throughput happened to add.
func engineHeapMiB(b *bench) float64 {
	var own uint64
	for _, c := range b.cl {
		c.lat = [subWindows][numClasses]dist{} // warm-up samples
		for _, p := range c.last {
			own += uint64(cap(p))
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-min(own, ms.HeapAlloc)) / (1 << 20)
}

// runTraced splits the run's length into two windows on one database,
// opened with the benchmark's tracer: the first untraced, the second with
// the benchmark's call spans, the tracer's events and a CPU profile.
func runTraced(s spec, seed int64, d time.Duration, out, data string, res *result) error {
	tr := &engineTracer{}
	b, err := setup(s, seed, filepath.Join(data, "traced"), tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	wa, err := b.measure(d/2, nil, "")
	if err != nil {
		b.db.Close()
		return err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", s.name, seed))
	wb, err := b.measure(d/2, tr, stem+".cpu.pprof")
	if err != nil {
		b.db.Close()
		return err
	}
	if _, err := b.finish(); err != nil {
		return err
	}
	if err := dumpSpans(stem+".spans.csv.gz", b.spanRecs(), tr); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if wb.cpu, err = cpuShares(stem + ".cpu.pprof"); err != nil {
		return err
	}
	res.Attempted, res.Failed = wa.attempted+wb.attempted, wa.failed+wb.failed
	layerMetrics(res.Metrics, b, wa, wb)
	return nil
}

// layerMetrics fills the per-layer metrics: engine counters and
// histograms over the traced window, the benchmark's own call timings,
// self time from its spans, CPU shares from the profile, allocations
// over the untraced window, and the tracing overhead between the two.
func layerMetrics(m map[string]metric, b *bench, wa, wb *window) {
	put := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{Value: v, N: n}
	}
	var pin, begin, local, twoPC dist
	restarts, updates, histLen, histories, extentItems := 0, 0, 0, 0, 0
	for _, c := range b.cl {
		pin, begin = append(pin, c.pin...), append(begin, c.begin...)
		local, twoPC = append(local, c.commitLocal...), append(twoPC, c.comm2PC...)
		restarts, updates = restarts+c.restarts, updates+c.updates
		histLen, histories = histLen+c.historyLen, histories+c.histories
		extentItems += c.extentItems
	}
	for _, d := range []dist{pin, begin, local, twoPC} {
		slices.Sort(d)
	}
	put("txn.pin_us", pin.at(50), len(pin))
	put("txn.begin_us", begin.at(50), len(begin))
	sb := summarize(begin)
	put("txn.begin_p99_us", sb.Tail, sb.N)
	sl, s2 := summarize(local), summarize(twoPC)
	put("txn.commit_local_p50_us", sl.P50, sl.N)
	put("txn.commit_local_p99_us", sl.Tail, sl.N)
	put("txn.commit_2pc_p50_us", s2.P50, s2.N)
	put("txn.commit_2pc_p99_us", s2.Tail, s2.N)
	put("txn.restarts_per_update", mean(float64(restarts), updates), updates)

	before, after := wb.before, wb.after
	commit := histDelta(after.CommitLatency, before.CommitLatency)
	put("txn.engine_commit_p50_us", histUS(commit, 0.5), int(commit.Count))
	put("txn.engine_commit_p99_us", histUS(commit, 0.99), int(commit.Count))
	put("txn.aborts", float64(after.Aborts-before.Aborts), 0)

	sp := wb.spans
	median := func(name uint8) (float64, int) { return sp.byName[name].at(50), len(sp.byName[name]) }
	for name, metricName := range map[uint8]string{
		spReadLatest: "core.read_latest_us", spReadVersion: "core.read_version_us", spAsOf: "core.asof_us",
		spHistory: "core.history_us", spNewVersion: "core.new_version_us", spUpdateLatest: "core.update_latest_us",
	} {
		v, n := median(name)
		put(metricName, v, n)
	}
	put("core.history_len", mean(float64(histLen), histories), histories)
	dprev := histDelta(after.DprevWalkLen, before.DprevWalkLen)
	tprev := histDelta(after.TprevWalkLen, before.TprevWalkLen)
	put("core.dprev_walk_mean", dprev.Mean(), int(dprev.Count))
	put("core.tprev_walk_mean", tprev.Mean(), int(tprev.Count))
	var extentNS int64
	for _, d := range sp.byName[spExtent] {
		extentNS += d
	}
	put("core.extent_item_us", mean(float64(extentNS)/1e3, extentItems), extentItems)
	put("core.ids_per_lease", ratio(b.setup.AllocIDs, b.setup.AllocLeases), int(b.setup.AllocLeases))

	dh, dm := after.DerefCacheHits-before.DerefCacheHits, after.DerefCacheMisses-before.DerefCacheMisses
	put("derefcache.hit_ratio", ratio(dh, dh+dm), int(dh+dm))
	put("derefcache.evictions", float64(after.DerefCacheEvictions-before.DerefCacheEvictions), 0)
	mh, mm := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	put("matcache.hit_ratio", ratio(mh, mh+mm), int(mh+mm))
	put("matcache.evictions", float64(after.CacheEvictions-before.CacheEvictions), 0)

	chain := histDelta(after.DeltaChainLen, before.DeltaChainLen)
	put("delta.chain_len_mean", chain.Mean(), int(chain.Count))
	put("delta.demotions", float64(after.DeltaDemotions-before.DeltaDemotions), 0)
	put("delta.bytes_saved", float64(after.DeltaBytesSaved), 0)
	compact := histDelta(after.CompactDuration, before.CompactDuration)
	put("compact.passes", float64(after.CompactPasses-before.CompactPasses), 0)
	put("compact.objects", float64(after.CompactObjects-before.CompactObjects), 0)
	put("compact.busy_ms", float64(compact.Sum)/1e6, int(compact.Count))
	put("compact.p99_us", histUS(compact, 0.99), int(compact.Count))

	ph, pm := after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses
	put("storage.pool_hit_ratio", ratio(ph, ph+pm), int(ph+pm))
	put("storage.pool_misses_per_op", mean(float64(pm), wb.attempted), wb.attempted)
	put("storage.pool_evictions", float64(after.PoolEvictions-before.PoolEvictions), 0)
	put("storage.snapshot_pages_max", float64(wb.snapMax), 0)

	ckpt := histDelta(after.CheckpointDuration, before.CheckpointDuration)
	put("wal.checkpoints", float64(after.Checkpoints-before.Checkpoints), 0)
	put("wal.checkpoint_p99_us", histUS(ckpt, 0.99), int(ckpt.Count))

	put("cpu.btree_frac", wb.cpu["btree"], 0)
	put("cpu.codec_frac", wb.cpu["codec"], 0)
	put("cpu.gc_frac", wb.cpu["gc"], 0)
	put("go.allocs_per_op", mean(float64(wa.mem1.Mallocs-wa.mem0.Mallocs), wa.attempted), wa.attempted)
	put("go.bytes_per_op", mean(float64(wa.mem1.TotalAlloc-wa.mem0.TotalAlloc), wa.attempted), wa.attempted)

	put("self.bench_us", sp.selfUS("bench"), sp.ops)
	put("self.txn_us", sp.selfUS("txn"), sp.ops)
	put("self.core_us", sp.selfUS("core"), sp.ops)

	put("trace.publish_us", wb.tracerMed[ode.SpanPublish], 0)
	put("trace.dropped", float64(after.TracerDropped-before.TracerDropped), 0)
	opsA, opsB := float64(wa.ops)/wa.elapsed.Seconds(), float64(wb.ops)/wb.elapsed.Seconds()
	put("trace.overhead_frac", 1-opsB/opsA, wb.ops)
	for _, def := range perLayer {
		v := m[def.Name]
		v.Unit = def.Unit
		m[def.Name] = v
	}
}

// report prints every metric by name, writes the full result to the
// output directory and prints the contract line: one JSON object with
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
func report(f *os.File, s spec, res *result, traced bool, out string, seed int64) error {
	w := bufio.NewWriter(f)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v\n", s.name, seed, traced)
	keys := make([]string, 0, len(res.Envelope))
	for k := range res.Envelope {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  envelope %-12s %v\n", k, res.Envelope[k])
	}
	line := map[string]metric{}
	for _, def := range defs {
		m, ok := res.Metrics[def.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.Name)
		}
		if !traced && (m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			return fmt.Errorf("metric %s = %v: an end-to-end metric must be a positive number", def.Name, m.Value)
		}
		line[def.Name] = metric{Value: m.Value, Unit: def.Unit}
		label := ""
		if traced {
			label = prediction(def, s.name)
		}
		printMetric(w, def, m, label)
	}
	if !traced {
		fmt.Fprintln(w, "  printed only (no bound; see README.md):")
		for _, def := range unbounded {
			printMetric(w, def, res.Metrics[def.Name], "")
		}
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if traced {
		mode = 1
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", s.name, seed, mode))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  full result: %s\n", path)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.Attempted, res.Failed, line})
	if err != nil {
		return err
	}
	w.Write(last)
	w.WriteByte('\n')
	return w.Flush()
}

// printMetric prints one metric line: name, value, unit, sample count as
// <name>_n, how the value was taken, and a label.
func printMetric(w *bufio.Writer, def metricDef, m metric, label string) {
	fmt.Fprintf(w, "  %-28s %14.4f %-6s %s_n=%d", def.Name, m.Value, def.Unit, def.Name, m.N)
	if m.Note != "" {
		fmt.Fprintf(w, " (%s)", m.Note)
	}
	if label != "" {
		fmt.Fprintf(w, "  %s", label)
	}
	fmt.Fprintln(w)
}

// prediction labels a per-layer metric with the end-to-end metrics it is
// predicted to move, and says when this workload is not one of them.
func prediction(def metricDef, workload string) string {
	if len(def.Moves) == 0 {
		return "-> (diagnostic; predicts no end-to-end change)"
	}
	here := false
	for _, mv := range def.Moves {
		here = here || strings.HasSuffix(mv, " on "+workload)
	}
	label := "-> " + strings.Join(def.Moves, ", ")
	if !here {
		label += "; here: no change predicted"
	}
	return label
}

// envelope records what a result was measured on.
func envelope(s spec, seed int64, d time.Duration, traced bool, dataDir string) map[string]any {
	mix := []string{}
	names := map[kind]string{opRead: "read", opMultiRead: "multi-read", opUpdate: "update-latest", opNewVersion: "new-version",
		opReadDepth: "read-at-depth", opAsOf: "as-of", opHistory: "history", opPair: "pair-update", opExtent: "extent"}
	for _, wt := range s.mix {
		mix = append(mix, fmt.Sprintf("%d%% %s", wt.w, names[wt.k]))
	}
	return map[string]any{
		"workload": s.name, "seed": seed, "seconds": d.Seconds(), "traced": traced,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"filesystem": fsType(dataDir), "flush": "NoSync: no fsync at commit or checkpoint", "clients": clients,
		"params": fmt.Sprintf("shards=%d deltatier=%v objects=%d payload=%dB versions=%d edit=%dB zipf=%v(s=%g) mix=[%s]",
			s.shards, s.deltaTier, s.objects, s.payload, s.versions, s.edit, s.zipf, zipfS, strings.Join(mix, ", ")),
	}
}
