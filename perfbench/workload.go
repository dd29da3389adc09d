package main

import (
	"fmt"
	"math/rand"
)

// kind is one operation of a workload's mix.
type kind uint8

const (
	opRead       kind = iota // View: ReadLatestRaw of any object
	opMultiRead              // View: ReadLatestRaw of several objects (a scan)
	opUpdate                 // Update: UpdateLatestRaw of an own object
	opNewVersion             // Update: NewVersion, then write it, of an own object
	opReadDepth              // View: Versions, then ReadVersionRaw at a random depth
	opAsOf                   // View: AsOf a random stamp, then ReadVersionRaw
	opHistory                // View: History from the latest version (a scan)
	opPair                   // Update: two own objects, one shard or two
	opExtent                 // View: the first objects of the Extent (a scan)
)

// class is the end-to-end latency family an operation reports into.
type class uint8

const (
	classRead class = iota
	classWrite
	classScan
	numClasses
)

func (k kind) class() class {
	switch k {
	case opUpdate, opNewVersion, opPair:
		return classWrite
	case opMultiRead, opHistory, opExtent:
		return classScan
	}
	return classRead
}

type weight struct {
	k kind
	w int // share in percent
}

// spec is one workload: the database it opens, the data it loads and
// the operation mix its clients run.
type spec struct {
	name, why   string
	shards      int
	deltaTier   bool
	objects     int
	payload     int // bytes per version
	versions    int // versions per object after set-up
	edit        int // bytes a new version rewrites of its parent; 0 rewrites the whole body
	zipf        bool
	multiRead   int // objects per opMultiRead
	extentItems int // objects per opExtent
	warmup      int // untimed operations per client at the end of set-up
	mix         []weight
}

// clients is the number of closed-loop client goroutines of every
// workload: the host has two CPUs, and each caller of an embedded
// library waits for its reply before it sends the next request.
const clients = 2

// zipfS is the skew of the zipfian key choice (rank r has weight
// proportional to 1/(1+r)^zipfS).
const zipfS = 1.1

func specs() []spec {
	return []spec{
		{
			name: wLatestHot,
			why: "Latest-version reads of a small zipfian hot set on one shard: time goes to the deref cache and the snapshot pin; " +
				"the writes retag the cache. Delta, 2PC and fsync play no part.",
			shards: 1, objects: 4096, payload: 256, versions: 1, zipf: true, multiRead: 16, warmup: 2000,
			mix: []weight{{opRead, 92}, {opMultiRead, 3}, {opUpdate, 4}, {opNewVersion, 1}},
		},
		{
			name: wHistoryCold,
			why: "Deep delta-compressed histories larger than the caches, read at random depths and stamps: delta, matcache, " +
				"version-index probes, pool misses and the compactor; the deref cache and fsync are bypassed.",
			shards: 4, deltaTier: true, objects: 128, payload: 2048, versions: 96, edit: 32, warmup: 200,
			mix: []weight{{opReadDepth, 45}, {opAsOf, 35}, {opHistory, 10}, {opNewVersion, 10}},
		},
		{
			name: wCommit2PC,
			why: "Two-object updates, half within one shard and half across two via 2PC, beside Extent scans and point reads: " +
				"2PC, shard joins, checkpoints and B-tree index puts set the latency.",
			shards: 4, objects: 8192, payload: 256, versions: 1, extentItems: 256, warmup: 200,
			mix: []weight{{opPair, 55}, {opRead, 25}, {opExtent, 20}},
		},
	}
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated operation. Object arguments are indices into the
// workload's object list; u is a uniform draw in [0,1) that picks a
// depth or a stamp against the state the operation finds.
type op struct {
	kind   kind
	a, b   int
	objs   []int // opMultiRead; valid until the next call to next
	u      float64
	cross  bool // opPair: the two objects sit on different shards
	newVer bool // opPair: NewVersion both objects before writing them
}

// gen generates one client's operations. Its sequence depends only on
// the seed, the client and the placement of the objects the client owns.
type gen struct {
	s    spec
	rng  *rand.Rand
	mix  []weight
	perm []int // rank -> object index for zipfian reads of any object
	own  []int // objects this client writes, in rank order
	// own objects by shard, for opPair; shards holding fewer than two
	// are left out of local pairs.
	byShard [][]int
	local   []int // shards usable for local pairs
	zAll    *rand.Zipf
	zOwn    *rand.Zipf
	multi   []int // reused by opMultiRead
}

// owner is the client that writes object i. Each object has exactly one
// writer, so the final sweep knows every object's last acknowledged
// content.
func owner(i int) int { return i % clients }

// newGen builds client c's generator. shardOf gives each object's shard.
func newGen(s spec, seed int64, c int, shardOf []int) (*gen, error) {
	g := &gen{s: s, rng: rand.New(rand.NewSource(seed*7919 + int64(c) + 1)), mix: s.mix}
	// The permutation is shared by both clients so they agree on which
	// objects are hot.
	g.perm = rand.New(rand.NewSource(seed)).Perm(s.objects)
	for _, i := range g.perm {
		if owner(i) == c {
			g.own = append(g.own, i)
		}
	}
	if s.zipf {
		g.zAll = rand.NewZipf(g.rng, zipfS, 1, uint64(s.objects-1))
		g.zOwn = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.own)-1))
	}
	if s.hasKind(opPair) {
		for _, i := range g.own {
			for shardOf[i] >= len(g.byShard) {
				g.byShard = append(g.byShard, nil)
			}
			g.byShard[shardOf[i]] = append(g.byShard[shardOf[i]], i)
		}
		for sh, objs := range g.byShard {
			if len(objs) >= 2 {
				g.local = append(g.local, sh)
			}
		}
		if len(g.local) < 2 {
			return nil, fmt.Errorf("client %d owns objects on %d shards; pairs need two", c, len(g.local))
		}
	}
	return g, nil
}

func (s spec) hasKind(k kind) bool {
	for _, w := range s.mix {
		if w.k == k {
			return true
		}
	}
	return false
}

func (g *gen) anyObject() int {
	if g.zAll != nil {
		return g.perm[g.zAll.Uint64()]
	}
	return g.rng.Intn(g.s.objects)
}

func (g *gen) ownObject() int {
	if g.zOwn != nil {
		return g.own[g.zOwn.Uint64()]
	}
	return g.own[g.rng.Intn(len(g.own))]
}

func (g *gen) next() op {
	r := g.rng.Intn(100)
	k := g.mix[len(g.mix)-1].k
	for _, w := range g.mix {
		if r < w.w {
			k = w.k
			break
		}
		r -= w.w
	}
	o := op{kind: k}
	switch k {
	case opRead, opReadDepth, opAsOf, opHistory:
		o.a, o.u = g.anyObject(), g.rng.Float64()
	case opUpdate, opNewVersion:
		o.a = g.ownObject()
	case opMultiRead:
		g.multi = g.multi[:0]
		for range g.s.multiRead {
			g.multi = append(g.multi, g.anyObject())
		}
		o.objs = g.multi
	case opPair:
		o.cross, o.newVer = g.rng.Intn(2) == 0, g.rng.Intn(4) == 0
		if o.cross {
			i, j := g.distinct(len(g.local))
			s1, s2 := g.byShard[g.local[i]], g.byShard[g.local[j]]
			o.a, o.b = s1[g.rng.Intn(len(s1))], s2[g.rng.Intn(len(s2))]
		} else {
			objs := g.byShard[g.local[g.rng.Intn(len(g.local))]]
			i, j := g.distinct(len(objs))
			o.a, o.b = objs[i], objs[j]
		}
	}
	return o
}

// distinct draws two different indices below n (n >= 2).
func (g *gen) distinct(n int) (int, int) {
	i, j := g.rng.Intn(n), g.rng.Intn(n-1)
	if j >= i {
		j++
	}
	return i, j
}
