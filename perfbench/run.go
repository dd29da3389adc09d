package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ode"
)

// checkError is a failed output check. It fails the whole run and is
// never counted as a failed operation.
type checkError struct{ err error }

func (e *checkError) Error() string { return "output check failed: " + e.err.Error() }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// blob is the registered type of every benchmark object; the benchmark
// reads and writes raw payloads, so the Go type carries no fields.
type blob struct{}

// createBatch is how many objects one set-up transaction creates.
const createBatch = 256

// bench is one opened, populated database and its clients.
type bench struct {
	s       spec
	seed    int64
	dir     string
	opts    ode.Options
	db      *ode.DB
	typ     ode.TypeID
	oids    []ode.OID
	shardOf []int // each object's shard as placed at set-up
	cl      []*client
	setup   ode.Stats // engine counters at the end of set-up
}

// client is one closed-loop caller. It is the only writer of the objects
// its generator owns and remembers each one's last acknowledged state.
type client struct {
	b        *bench
	id       int
	g        *gen
	rng      *rand.Rand // payload bodies
	last     [][]byte   // last acknowledged content of each own object
	seq      []uint64   // its sequence number
	versions []uint64   // acknowledged version count of each own object

	lat               [subWindows][numClasses]dist
	attempted, failed int
	winStart          time.Time     // start of the timed window
	winPart           time.Duration // length of one sub-window; 0 outside the window
	firstErr          error         // the first failed operation's error

	// Recorded in the traced window only (sp != nil).
	sp                               *spanRec
	pin, begin, commitLocal, comm2PC dist
	restarts, updates                int
	historyLen, histories            int
	extentItems                      int
}

func options(s spec, tr *engineTracer) ode.Options {
	// Every workload commits without fsync: on a shared host a WAL fsync's
	// latency follows other tenants' filesystem journal traffic and
	// changed by a third from run to run, more than any bound could hold.
	o := ode.Options{Shards: s.shards, NoSync: true, DeltaTier: s.deltaTier}
	if tr != nil {
		o.Tracer = tr
	}
	return o
}

// setup opens a fresh database in dir, loads the workload's objects and
// versions, and warms it up with untimed operations of the mix.
func setup(s spec, seed int64, dir string, tr *engineTracer) (*bench, error) {
	b := &bench{s: s, seed: seed, dir: dir, opts: options(s, tr)}
	db, err := ode.Open(dir, &b.opts)
	if err != nil {
		return nil, err
	}
	b.db = db
	if err := b.populate(); err != nil {
		db.Close()
		return nil, fmt.Errorf("populate: %w", err)
	}
	b.setup = db.Stats()
	for c := 0; c < clients; c++ {
		g, err := newGen(s, seed, c, b.shardOf)
		if err != nil {
			db.Close()
			return nil, err
		}
		b.cl[c].g = g
	}
	if err := b.loop(func(c *client, n int) bool { return n < s.warmup }); err != nil {
		db.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *bench) populate() error {
	s := b.s
	ty, err := ode.Register[blob](b.db, "perfbench.blob")
	if err != nil {
		return err
	}
	b.typ = ty.ID()
	for c := 0; c < clients; c++ {
		b.cl = append(b.cl, &client{
			b: b, id: c,
			rng:  rand.New(rand.NewSource(b.seed*104729 + int64(c) + 1)),
			last: make([][]byte, s.objects), seq: make([]uint64, s.objects), versions: make([]uint64, s.objects),
		})
	}
	rng := rand.New(rand.NewSource(b.seed))
	for start := 0; start < s.objects; start += createBatch {
		end := min(start+createBatch, s.objects)
		bodies := make([][]byte, end-start)
		for i := range bodies {
			bodies[i] = newPayload(rng, s.payload, 0, 0)
		}
		var created []ode.OID
		var sealed [][]byte
		err := b.db.Update(func(tx *ode.Tx) error {
			created, sealed = created[:0], sealed[:0]
			for _, body := range bodies {
				o, _, err := tx.CreateRaw(b.typ, body)
				if err != nil {
					return err
				}
				p := append([]byte(nil), body...)
				seal(p, o, 0)
				if _, err := tx.UpdateLatestRaw(o, p); err != nil {
					return err
				}
				created, sealed = append(created, o), append(sealed, p)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for k, o := range created {
			i := len(b.oids)
			b.oids = append(b.oids, o)
			c := b.cl[owner(i)]
			c.last[i], c.versions[i] = sealed[k], 1
		}
	}
	m := b.db.Engine().Coordinator().Map()
	b.shardOf = make([]int, s.objects)
	var groups [][]int // object indices by shard
	for i, o := range b.oids {
		sh := m.ShardOf(uint64(o))
		for sh >= len(groups) {
			groups = append(groups, nil)
		}
		b.shardOf[i] = sh
		groups[sh] = append(groups[sh], i)
	}
	// Grow every object's history round by round, so versions of
	// different objects interleave in time; one transaction per shard
	// and round keeps set-up commits local.
	for v := 1; v < s.versions; v++ {
		for _, objs := range groups {
			if len(objs) == 0 {
				continue
			}
			next := make([][]byte, len(objs))
			for k, i := range objs {
				next[k] = edited(rng, b.cl[owner(i)].last[i], b.oids[i], uint64(v), s.edit)
			}
			err := b.db.Update(func(tx *ode.Tx) error {
				for k, i := range objs {
					if _, err := tx.NewVersion(b.oids[i]); err != nil {
						return err
					}
					if _, err := tx.UpdateLatestRaw(b.oids[i], next[k]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			for k, i := range objs {
				c := b.cl[owner(i)]
				c.last[i], c.seq[i], c.versions[i] = next[k], uint64(v), uint64(v+1)
			}
		}
	}
	if s.deltaTier {
		// Compact the loaded history to its fixpoint, so the timed window
		// sees the compactor's steady work on new versions rather than
		// whatever backlog of set-up versions it has not reached yet.
		if _, err := b.db.Compact(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	return nil
}

// loop runs every client's closed loop until more reports false for it
// (given the number of operations it has run) or an output check fails.
func (b *bench) loop(more func(c *client, n int) bool) error {
	var stop atomic.Bool
	errs := make([]error, len(b.cl))
	var wg sync.WaitGroup
	for _, c := range b.cl {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; !stop.Load() && more(c, n); n++ {
				if err := c.run(c.g.next()); err != nil {
					errs[c.id] = err
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is what one timed run of the mix measured.
type window struct {
	elapsed       time.Duration
	before, after ode.Metrics
	mem0, mem1    runtime.MemStats
	cpuAt         [subWindows + 1]time.Duration // process CPU time at each sub-window boundary
	part          time.Duration                 // length of one sub-window
	lat           [subWindows][numClasses]dist
	ops           int // completed operations
	attempted     int
	failed        int
	firstErr      error

	// traced windows only
	spans     spanStats
	snapMax   int64
	cpu       map[string]float64
	tracerMed map[ode.SpanKind]float64
}

// measure runs the mix for d. A traced window also records the
// benchmark's call spans, the engine's tracer events, a CPU profile
// (written to profile) and the peak snapshot-page count.
func (b *bench) measure(d time.Duration, tr *engineTracer, profile string) (*window, error) {
	w := &window{}
	for _, c := range b.cl {
		c.lat, c.attempted, c.failed, c.firstErr = [subWindows][numClasses]dist{}, 0, 0, nil
		c.historyLen, c.histories, c.extentItems = 0, 0, 0
	}
	traced := tr != nil
	var stopSampler chan struct{}
	var samplerDone sync.WaitGroup
	if traced {
		base := time.Now()
		for _, c := range b.cl {
			c.sp = newSpanRec(base)
		}
		tr.setOn(true)
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		stopSampler = make(chan struct{})
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-t.C:
					w.snapMax = max(w.snapMax, b.db.Metrics().SnapshotPages)
				}
			}
		}()
	}
	w.before = b.db.Metrics()
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	w.part = d / subWindows
	for _, c := range b.cl {
		c.winStart, c.winPart = start, w.part
	}
	// Sample the process CPU time at every sub-window boundary.
	w.cpuAt[0] = cpuTime()
	done := make(chan struct{})
	var sampled sync.WaitGroup
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		for k := 1; k < subWindows; k++ {
			select {
			case <-done:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * w.part))):
				w.cpuAt[k] = cpuTime()
			}
		}
	}()
	deadline := start.Add(d)
	err := b.loop(func(*client, int) bool { return time.Now().Before(deadline) })
	w.elapsed = time.Since(start)
	w.cpuAt[subWindows] = cpuTime()
	close(done)
	sampled.Wait()
	for _, c := range b.cl {
		c.winPart = 0
	}
	runtime.ReadMemStats(&w.mem1)
	w.after = b.db.Metrics()
	if traced {
		pprof.StopCPUProfile()
		close(stopSampler)
		samplerDone.Wait()
		tr.setOn(false)
		w.spans = analyseSpans(b.spanRecs())
		w.tracerMed = tr.medians()
	}
	if err != nil {
		return nil, err
	}
	for _, c := range b.cl {
		for k := range c.lat {
			for cl := range c.lat[k] {
				w.lat[k][cl] = append(w.lat[k][cl], c.lat[k][cl]...)
				w.ops += len(c.lat[k][cl])
			}
		}
		w.attempted += c.attempted
		w.failed += c.failed
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
	}
	return w, nil
}

// run executes one operation.
func (c *client) run(o op) error {
	span := c.sp.open(spOp)
	var err error
	switch o.kind {
	case opRead:
		err = c.read(o.a)
	case opMultiRead:
		err = c.multiRead(o.objs)
	case opUpdate, opNewVersion:
		err = c.write(o.a, o.kind == opNewVersion)
	case opReadDepth:
		err = c.readDepth(o.a, o.u)
	case opAsOf:
		err = c.asOf(o.a, o.u)
	case opHistory:
		err = c.history(o.a)
	case opPair:
		err = c.pair(o)
	case opExtent:
		err = c.extent()
	}
	c.sp.close(span)
	if c.sp != nil {
		c.sp.op++
	}
	return err
}

// view times one DB.View. Only successful calls enter the latency
// distribution; an output check failure is returned, any other error is
// a failed operation.
func (c *client) view(cl class, fn func(tx *ode.Tx) error) error {
	c.attempted++
	span := c.sp.open(spView)
	var entered int64
	t0 := time.Now()
	err := c.b.db.View(func(tx *ode.Tx) error {
		entered = c.sp.now()
		return fn(tx)
	})
	d := time.Since(t0)
	c.sp.close(span)
	if c.sp != nil && err == nil {
		c.pin = append(c.pin, entered-c.sp.spans[span].start)
	}
	_, err = c.finish(cl, d, err)
	return err
}

// update times one DB.Update and reports whether it was acknowledged.
// cross marks a transaction spanning two shards (a 2PC commit).
func (c *client) update(cross bool, fn func(tx *ode.Tx) error) (bool, error) {
	c.attempted++
	span := c.sp.open(spUpdate)
	calls := 0
	var first, last int64
	t0 := time.Now()
	err := c.b.db.Update(func(tx *ode.Tx) error {
		calls++
		if calls == 1 {
			first = c.sp.now()
		}
		err := fn(tx)
		last = c.sp.now()
		return err
	})
	d := time.Since(t0)
	c.sp.close(span)
	if c.sp != nil && err == nil {
		s := c.sp.spans[span]
		c.begin = append(c.begin, first-s.start)
		if cross {
			c.comm2PC = append(c.comm2PC, s.end-last)
		} else {
			c.commitLocal = append(c.commitLocal, s.end-last)
		}
		c.restarts += calls - 1
		c.updates++
	}
	return c.finish(classWrite, d, err)
}

func (c *client) finish(cl class, d time.Duration, err error) (bool, error) {
	switch {
	case err == nil:
		k := 0
		if c.winPart > 0 {
			k = min(int(time.Since(c.winStart)/c.winPart), subWindows-1)
		}
		c.lat[k][cl] = append(c.lat[k][cl], int64(d))
		return true, nil
	case isCheck(err):
		return false, err
	}
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
	return false, nil
}

// check verifies a payload read of object o inside a callback.
func (c *client) check(p []byte, o ode.OID) (uint64, error) {
	t := c.sp.now()
	seq, err := verify(p, o)
	c.sp.leaf(spCheck, t)
	if err != nil {
		return 0, &checkError{err}
	}
	return seq, nil
}

func (c *client) readLatest(tx *ode.Tx, o ode.OID) error {
	t := c.sp.now()
	p, _, err := tx.ReadLatestRaw(o)
	c.sp.leaf(spReadLatest, t)
	if err != nil {
		return err
	}
	_, err = c.check(p, o)
	return err
}

func (c *client) read(i int) error {
	o := c.b.oids[i]
	return c.view(classRead, func(tx *ode.Tx) error { return c.readLatest(tx, o) })
}

func (c *client) multiRead(objs []int) error {
	return c.view(classScan, func(tx *ode.Tx) error {
		for _, i := range objs {
			if err := c.readLatest(tx, c.b.oids[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// nextContent is the content an own object's next write stores: an edit
// of its last content where the workload edits, fresh bytes otherwise.
func (c *client) nextContent(i int) []byte {
	if c.b.s.edit > 0 {
		return edited(c.rng, c.last[i], c.b.oids[i], c.seq[i]+1, c.b.s.edit)
	}
	return newPayload(c.rng, c.b.s.payload, c.b.oids[i], c.seq[i]+1)
}

func (c *client) writeObject(tx *ode.Tx, o ode.OID, p []byte, newVersion bool) error {
	if newVersion {
		t := c.sp.now()
		_, err := tx.NewVersion(o)
		c.sp.leaf(spNewVersion, t)
		if err != nil {
			return err
		}
	}
	t := c.sp.now()
	_, err := tx.UpdateLatestRaw(o, p)
	c.sp.leaf(spUpdateLatest, t)
	return err
}

func (c *client) acked(i int, p []byte, newVersion bool) {
	c.last[i] = p
	c.seq[i]++
	if newVersion {
		c.versions[i]++
	}
}

func (c *client) write(i int, newVersion bool) error {
	o, p := c.b.oids[i], c.nextContent(i)
	ok, err := c.update(false, func(tx *ode.Tx) error { return c.writeObject(tx, o, p, newVersion) })
	if ok {
		c.acked(i, p, newVersion)
	}
	return err
}

func (c *client) pair(op op) error {
	m := c.b.db.Engine().Coordinator().Map()
	sa, sb := m.ShardOf(uint64(c.b.oids[op.a])), m.ShardOf(uint64(c.b.oids[op.b]))
	if sa != c.b.shardOf[op.a] || sb != c.b.shardOf[op.b] || (sa != sb) != op.cross {
		return checkFailed("pair %v,%v: placed on shards %d,%d, assumed %d,%d (cross=%v)",
			c.b.oids[op.a], c.b.oids[op.b], sa, sb, c.b.shardOf[op.a], c.b.shardOf[op.b], op.cross)
	}
	pa, pb := c.nextContent(op.a), c.nextContent(op.b)
	ok, err := c.update(op.cross, func(tx *ode.Tx) error {
		if err := c.writeObject(tx, c.b.oids[op.a], pa, op.newVer); err != nil {
			return err
		}
		return c.writeObject(tx, c.b.oids[op.b], pb, op.newVer)
	})
	if ok {
		c.acked(op.a, pa, op.newVer)
		c.acked(op.b, pb, op.newVer)
	}
	return err
}

func (c *client) readDepth(i int, u float64) error {
	o := c.b.oids[i]
	return c.view(classRead, func(tx *ode.Tx) error {
		t := c.sp.now()
		vs, err := tx.Versions(o)
		c.sp.leaf(spVersions, t)
		if err != nil {
			return err
		}
		if len(vs) == 0 {
			return checkFailed("object %v lists no versions", o)
		}
		d := int(u * float64(len(vs)))
		t = c.sp.now()
		p, err := tx.ReadVersionRaw(o, vs[d])
		c.sp.leaf(spReadVersion, t)
		if err != nil {
			return err
		}
		seq, err := c.check(p, o)
		if err != nil {
			return err
		}
		// Histories here are linear and every write makes a version, so
		// the d-th version in temporal order carries sequence number d.
		if c.b.s.edit > 0 && seq != uint64(d) {
			return checkFailed("object %v: version %d of %d carries sequence %d", o, d, len(vs), seq)
		}
		return nil
	})
}

func (c *client) asOf(i int, u float64) error {
	o := c.b.oids[i]
	return c.view(classRead, func(tx *ode.Tx) error {
		probe := ode.Stamp(1 + uint64(u*float64(tx.CurrentStamp())))
		t := c.sp.now()
		v, found, err := tx.AsOf(o, probe)
		c.sp.leaf(spAsOf, t)
		if err != nil || !found {
			return err
		}
		t = c.sp.now()
		info, err := tx.Info(o, v)
		c.sp.leaf(spInfo, t)
		if err != nil {
			return err
		}
		if info.Stamp > probe {
			return checkFailed("object %v: AsOf(%d) returned %v stamped %d", o, probe, v, info.Stamp)
		}
		t = c.sp.now()
		p, err := tx.ReadVersionRaw(o, v)
		c.sp.leaf(spReadVersion, t)
		if err != nil {
			return err
		}
		_, err = c.check(p, o)
		return err
	})
}

func (c *client) history(i int) error {
	o := c.b.oids[i]
	n := 0
	err := c.view(classScan, func(tx *ode.Tx) error {
		t := c.sp.now()
		v, err := tx.Latest(o)
		c.sp.leaf(spLatest, t)
		if err != nil {
			return err
		}
		t = c.sp.now()
		h, err := tx.History(o, v)
		c.sp.leaf(spHistory, t)
		if err != nil {
			return err
		}
		t = c.sp.now()
		count, err := tx.VersionCount(o)
		c.sp.leaf(spVersionCount, t)
		if err != nil {
			return err
		}
		if uint64(len(h)) != count || len(h) == 0 || h[0] != v {
			return checkFailed("object %v: History from latest %v has %d versions, VersionCount %d", o, v, len(h), count)
		}
		n = len(h)
		return nil
	})
	if err == nil && n > 0 {
		c.historyLen += n
		c.histories++
	}
	return err
}

func (c *client) extent() error {
	want := min(c.b.s.extentItems, c.b.s.objects)
	n := 0
	err := c.view(classScan, func(tx *ode.Tx) error {
		n = 0
		var prev ode.OID
		var bad error
		t := c.sp.now()
		err := tx.Extent(c.b.typ, func(o ode.OID) (bool, error) {
			if n > 0 && o <= prev {
				bad = checkFailed("Extent yielded %v after %v", o, prev)
				return false, nil
			}
			prev = o
			n++
			return n < want, nil
		})
		c.sp.leaf(spExtent, t)
		switch {
		case err != nil:
			return err
		case bad != nil:
			return bad
		case n != want:
			return checkFailed("Extent stopped after %d of %d objects", n, want)
		}
		return nil
	})
	if err == nil {
		c.extentItems += n
	}
	return err
}

// sweep checks the final state: every object's latest content is its
// writer's last acknowledged write, every version count and placement is
// as acknowledged, the engine's counts agree, and the structure passes
// CheckIntegrity.
func (b *bench) sweep() error {
	var want uint64
	m := b.db.Engine().Coordinator().Map()
	err := b.db.View(func(tx *ode.Tx) error {
		for i, o := range b.oids {
			c := b.cl[owner(i)]
			p, _, err := tx.ReadLatestRaw(o)
			if err != nil {
				return checkFailed("object %v unreadable: %v", o, err)
			}
			if _, err := verify(p, o); err != nil {
				return &checkError{err}
			}
			if !bytes.Equal(p, c.last[i]) {
				return checkFailed("object %v: latest content is not client %d's last acknowledged write (sequence %d)", o, c.id, c.seq[i])
			}
			n, err := tx.VersionCount(o)
			if err != nil {
				return checkFailed("object %v: VersionCount: %v", o, err)
			}
			if n != c.versions[i] {
				return checkFailed("object %v: %d versions, %d acknowledged", o, n, c.versions[i])
			}
			if sh := m.ShardOf(uint64(o)); sh != b.shardOf[i] {
				return checkFailed("object %v: on shard %d, placed on %d at set-up", o, sh, b.shardOf[i])
			}
			want += n
		}
		return nil
	})
	if err != nil {
		if isCheck(err) {
			return err
		}
		return checkFailed("final sweep: %v", err)
	}
	if st := b.db.Stats(); st.Versions != want || st.Objects != uint64(len(b.oids)) {
		return checkFailed("engine counts %d objects and %d versions; %d and %d acknowledged", st.Objects, st.Versions, len(b.oids), want)
	}
	if err := b.db.CheckIntegrity(); err != nil {
		return checkFailed("CheckIntegrity: %v", err)
	}
	return nil
}

// finish checks the final state, closes the database and returns the
// bytes on disk per live payload byte. It then reopens the directory and
// checks every acknowledged write again.
func (b *bench) finish() (spaceAmp float64, err error) {
	if err := b.sweep(); err != nil {
		b.db.Close()
		return 0, err
	}
	if err := b.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	onDisk, err := dirBytes(b.dir)
	if err != nil {
		return 0, err
	}
	var live uint64
	for i := range b.oids {
		live += b.cl[owner(i)].versions[i] * uint64(b.s.payload)
	}
	opts := options(b.s, nil)
	if b.db, err = ode.Open(b.dir, &opts); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	err = b.sweep()
	if cerr := b.db.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close after reopen: %w", cerr)
	}
	if err != nil {
		return 0, fmt.Errorf("after reopen: %w", err)
	}
	return float64(onDisk) / float64(live), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

func (b *bench) spanRecs() []*spanRec {
	recs := make([]*spanRec, len(b.cl))
	for i, c := range b.cl {
		recs[i] = c.sp
	}
	return recs
}
