package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ode"
)

// tiny shrinks a workload so a smoke run takes about a second. It keeps
// four creating transactions, so that objects land on several shards.
func tiny(s spec) spec {
	s.objects = min(s.objects, 4*createBatch)
	s.versions = min(s.versions, 6)
	s.warmup = 20
	return s
}

func TestSameSeedSameOps(t *testing.T) {
	for _, s := range specs() {
		shardOf := make([]int, s.objects)
		for i := range shardOf {
			shardOf[i] = (i / 2) % 4
		}
		ops := func(seed int64, c int) []op {
			g, err := newGen(s, seed, c, shardOf)
			if err != nil {
				t.Fatal(err)
			}
			var out []op
			for range 2000 {
				o := g.next()
				o.objs = slices.Clone(o.objs)
				out = append(out, o)
			}
			return out
		}
		a, b := ops(7, 1), ops(7, 1)
		for i := range a {
			if a[i].kind != b[i].kind || a[i].a != b[i].a || a[i].b != b[i].b || a[i].u != b[i].u ||
				a[i].cross != b[i].cross || a[i].newVer != b[i].newVer || !slices.Equal(a[i].objs, b[i].objs) {
				t.Fatalf("%s: op %d differs between two generators of seed 7: %+v vs %+v", s.name, i, a[i], b[i])
			}
		}
		other := ops(8, 1)
		same := 0
		for i := range a {
			if a[i].kind == other[i].kind && a[i].a == other[i].a && a[i].u == other[i].u {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 7 and 8 generate the same operations", s.name)
		}
		for _, o := range a {
			if o.kind == opUpdate || o.kind == opNewVersion || o.kind == opPair {
				if owner(o.a) != 1 || (o.kind == opPair && owner(o.b) != 1) {
					t.Fatalf("%s: client 1 writes an object it does not own: %+v", s.name, o)
				}
			}
			if o.kind == opPair && (shardOf[o.a] != shardOf[o.b]) != o.cross {
				t.Fatalf("%s: pair %+v placed on shards %d and %d", s.name, o, shardOf[o.a], shardOf[o.b])
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		pct    float64
		beyond int
		ok     bool
	}{
		{100000, 99, 99, 1000, true},
		{1000, 99, 99, 10, true},
		{999, 99, 95, 49, true},
		{199, 99, 90, 19, true},
		{20, 99, 50, 10, true},
		{19, 99, 0, 0, false},
		{100000, 99.9, 99.9, 100, true},
	} {
		pct, ok := tailPercentile(tc.n, tc.want)
		if pct != tc.pct || ok != tc.ok {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", tc.n, tc.want, pct, ok, tc.pct, tc.ok)
			continue
		}
		if ok && tc.n-rank(tc.n, pct) != tc.beyond {
			t.Errorf("n=%d p%g: %d samples beyond, want %d", tc.n, pct, tc.n-rank(tc.n, pct), tc.beyond)
		}
	}
	d := make(dist, 1000)
	for i := range d {
		d[i] = int64(1000 - i) // 1..1000 ns, unsorted
	}
	s := summarize(d)
	if s.N != 1000 || s.TailPct != 99 || s.Tail != 0.99 || s.P50 != 0.5 {
		t.Fatalf("summarize(1..1000ns) = %+v", s)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }          `json:"workloads"`
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.Name || got[i].Unit != m.Unit || got[i].Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %s %s (%s is better)", what, i, got[i], m.Name, m.Unit, m.Better)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(specs()))
	}
	for i, s := range specs() {
		if bj.Workloads[i].Name != s.name || bj.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, s.name, s.why)
		}
	}
}

func TestPayloadChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newPayload(rng, 256, 42, 7)
	if seq, err := verify(p, 42); err != nil || seq != 7 {
		t.Fatalf("verify(intact) = %d, %v", seq, err)
	}
	if _, err := verify(p, 43); err == nil {
		t.Fatal("a payload of object 42 passed as object 43")
	}
	for _, i := range []int{0, 8, 100, 255} {
		q := slices.Clone(p)
		q[i] ^= 1
		if _, err := verify(q, 42); err == nil {
			t.Fatalf("flipping a bit of byte %d went unnoticed", i)
		}
	}
	if _, err := verify(p[:10], 42); err == nil {
		t.Fatal("a truncated payload passed")
	}
	e := edited(rng, p, 42, 8, 32)
	if seq, err := verify(e, 42); err != nil || seq != 8 {
		t.Fatalf("verify(edited) = %d, %v", seq, err)
	}
	diff := 0
	for i := payloadHeader; i < len(p)-payloadTrailer; i++ {
		if p[i] != e[i] {
			diff++
		}
	}
	if diff == 0 || diff > 32 {
		t.Fatalf("an edit of 32 bytes changed %d body bytes", diff)
	}
}

// TestChecksTripOnWrongContent stores another object's payload and a
// corrupted payload behind the benchmark's back and expects both the
// per-read check and the final sweep to fail.
func TestChecksTripOnWrongContent(t *testing.T) {
	s, _ := specByName(wLatestHot)
	s = tiny(s)
	b, err := setup(s, 3, filepath.Join(t.TempDir(), "db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.db.Close()
	c := b.cl[0]
	if err := c.read(0); err != nil {
		t.Fatalf("read of an intact object: %v", err)
	}
	if err := b.sweep(); err != nil {
		t.Fatalf("sweep of an intact database: %v", err)
	}
	corrupt := slices.Clone(b.cl[owner(1)].last[1])
	corrupt[payloadHeader] ^= 0xff
	for _, tc := range []struct {
		name    string
		content []byte
	}{
		{"another object's payload", b.cl[owner(1)].last[1]},
		{"a corrupted payload", corrupt},
	} {
		err := b.db.Update(func(tx *ode.Tx) error {
			_, err := tx.UpdateLatestRaw(b.oids[0], tc.content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.read(0); !isCheck(err) {
			t.Errorf("%s: read returned %v, want a failed check", tc.name, err)
		}
		if err := b.sweep(); !isCheck(err) {
			t.Errorf("%s: sweep returned %v, want a failed check", tc.name, err)
		}
	}
	// A write the benchmark never acknowledged, with a valid payload,
	// passes the per-read checks but not the final sweep.
	p := newPayload(rand.New(rand.NewSource(9)), s.payload, b.oids[0], 99)
	if err := b.db.Update(func(tx *ode.Tx) error { _, err := tx.UpdateLatestRaw(b.oids[0], p); return err }); err != nil {
		t.Fatal(err)
	}
	if err := c.read(0); err != nil {
		t.Fatalf("read of a valid payload: %v", err)
	}
	if err := b.sweep(); !isCheck(err) {
		t.Fatalf("sweep after an unacknowledged write returned %v, want a failed check", err)
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks that the printed result line names exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, s := range specs() {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			res, err := run(tiny(s), 5, 300*time.Millisecond, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: %d attempted, %d failed", s.name, traced, res.Attempted, res.Failed)
			}
			f, err := os.Create(filepath.Join(out, "stdout"))
			if err != nil {
				t.Fatal(err)
			}
			// The tiny scale may leave a tail percentile without enough
			// samples, which report rejects; the names are what is
			// checked here, so fill such gaps.
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					m.Value = 1
					res.Metrics[name] = m
				}
			}
			if err := report(f, s, res, traced, out, 5); err != nil {
				t.Fatal(err)
			}
			f.Close()
			line := lastLine(t, filepath.Join(out, "stdout"))
			var got struct {
				Correct bool
				Metrics map[string]json.RawMessage
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil || !got.Correct {
				t.Fatalf("%s: result line %q: %v", s.name, line, err)
			}
			var want []string
			defs := bj.EndToEnd
			if traced {
				defs = bj.PerLayer
			}
			for _, d := range defs {
				want = append(want, d.Name)
			}
			var names []string
			for n := range got.Metrics {
				names = append(names, n)
			}
			slices.Sort(names)
			slices.Sort(want)
			if !slices.Equal(names, want) {
				t.Fatalf("%s traced=%v: printed metrics %v, BENCHMARK.json %v", s.name, traced, names, want)
			}
		}
	}
}

func lastLine(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	return last
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   ode/internal/btree.decodeNode
             ode/internal/core.(*Tx).ReadLatest
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   ode/internal/codec.AppendU32
             ode/internal/btree.(*Tree).Put
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"btree": 0.8, "codec": 0.5, "gc": 0.1}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share = %g, want %g", k, got[k], v)
		}
	}
}
