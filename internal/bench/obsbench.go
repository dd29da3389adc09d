package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ode"
)

// ObsJSONPath, when non-empty, is where E13 writes its machine-readable
// results. cmd/odebench points it at BENCH_obs.json in the invocation
// directory; tests leave it empty so quick runs emit nothing.
var ObsJSONPath = ""

// ObsResult is one E13 measurement cell.
type ObsResult struct {
	Committers    int     `json:"committers"`
	Mode          string  `json:"mode"` // "baseline" (NoMetrics) or "instrumented"
	CommitsPerSec float64 `json:"commits_per_sec"`
	Commits       int64   `json:"commits"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	Millis        int64   `json:"window_ms"`
	Reps          int     `json:"reps"`
}

// ObsComparison pairs the two modes at one concurrency level.
type ObsComparison struct {
	Committers  int     `json:"committers"`
	OverheadPct float64 `json:"overhead_pct"` // (baseline - instrumented) / baseline × 100
}

// median of a non-empty slice (sorts a copy).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// E13 — observability overhead: commit throughput with the metrics
// layer on (the default: atomic counter adds plus two time.Now() calls
// per commit) versus NoMetrics (every instrumentation site compiled
// down to a nil check). Same workload shape as E12 — small in-place
// updates on disjoint objects — but with NoSync commits: an
// fsync-bound run has ±30% device jitter between identical cells,
// which swamps a few-percent effect, while NoSync is both stable and
// adversarial for instrumentation (the more commits per second, the
// more instrumentation per second).
//
// Even NoSync runs see ±10% machine noise between cells on shared
// hardware, and back-to-back cells have a slot bias (the later run
// benefits from a warm CPU and page cache), so the overhead is
// measured with an ABBA design: each rep runs four windows in the
// order baseline, instrumented, instrumented, baseline, and computes
// one ratio from the two sums — slot effects cancel exactly within
// the rep, and temporally correlated drift cancels in the ratio. The
// reported overhead is the median of the per-rep ratios. The
// acceptance bar is instrumented within 3% of baseline at both
// concurrency levels.
func E13(root string, s Scale) (*Table, error) {
	window := time.Duration(600/s.Factor) * time.Millisecond
	if window < 120*time.Millisecond {
		window = 120 * time.Millisecond
	}
	reps := 5
	if s.Factor > 1 {
		reps = 1
	}

	t := &Table{
		Title:   "E13 — Observability overhead: instrumented vs NoMetrics commit throughput",
		Note:    fmt.Sprintf("E12's workload with NoSync commits (small in-place updates, 512-byte pages, checkpoints off) for %v per run, %d ABBA reps per cell (baseline, instrumented, instrumented, baseline — slot bias cancels within the rep). baseline = Options.NoMetrics (no counters, no timestamps); instrumented = default. commits/s columns are medians; overhead is the median of per-rep (baseline − instrumented)/baseline ratios, which cancels machine noise a cross-run comparison cannot. The contract is <3%%.", window, reps),
		Headers: []string{"committers", "baseline commits/s", "instrumented commits/s", "overhead", "instr p50/p95/p99 (µs)"},
	}

	var results []ObsResult
	var comparisons []ObsComparison
	cell := 0
	for _, n := range []int{1, 16} {
		var baseCPS, instrCPS, ratios []float64
		var instrHist ode.HistSnapshot
		var instrCommits int64
		// One discarded warm-up window per level absorbs CPU ramp-up.
		if _, _, _, _, err := groupCommitCell(filepath.Join(root, fmt.Sprintf("e13-warm-%d", n)),
			&ode.Options{CheckpointBytes: -1, PageSize: 512, NoSync: true}, n, false, window); err != nil {
			return nil, err
		}
		for rep := 0; rep < reps; rep++ {
			var sum [2]float64 // [baseline, instrumented]
			for _, baseline := range []bool{true, false, false, true} {
				opts := &ode.Options{CheckpointBytes: -1, PageSize: 512, NoSync: true}
				if baseline {
					opts.NoMetrics = true
				}
				cell++
				dir := filepath.Join(root, fmt.Sprintf("e13-%02d", cell))
				commits, _, _, hist, err := groupCommitCell(dir, opts, n, false, window)
				if err != nil {
					return nil, err
				}
				cps := float64(commits) / window.Seconds()
				if baseline {
					sum[0] += cps
					baseCPS = append(baseCPS, cps)
				} else {
					sum[1] += cps
					instrCPS = append(instrCPS, cps)
					if commits > instrCommits {
						instrCommits = commits
						instrHist = hist
					}
				}
			}
			if sum[0] > 0 {
				ratios = append(ratios, (sum[0]-sum[1])/sum[0]*100)
			}
		}
		overhead := median(ratios)
		results = append(results,
			ObsResult{Committers: n, Mode: "baseline", CommitsPerSec: median(baseCPS),
				Millis: window.Milliseconds(), Reps: reps},
			ObsResult{Committers: n, Mode: "instrumented", CommitsPerSec: median(instrCPS),
				Commits:      instrCommits,
				P50LatencyUS: usFromNS(instrHist.P50()), P95LatencyUS: usFromNS(instrHist.P95()),
				P99LatencyUS: usFromNS(instrHist.P99()),
				Millis:       window.Milliseconds(), Reps: reps})
		comparisons = append(comparisons, ObsComparison{Committers: n, OverheadPct: overhead})
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", median(baseCPS)),
			fmt.Sprintf("%.0f", median(instrCPS)),
			fmt.Sprintf("%+.1f%%", overhead),
			fmt.Sprintf("%.0f/%.0f/%.0f", usFromNS(instrHist.P50()),
				usFromNS(instrHist.P95()), usFromNS(instrHist.P99())))
	}

	if ObsJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment  string          `json:"experiment"`
			Results     []ObsResult     `json:"results"`
			Comparisons []ObsComparison `json:"comparisons"`
		}{"E13-obs-overhead", results, comparisons}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(ObsJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
