// Package vcache is the engine's version cache: a sharded, byte-bounded
// LRU mapping a reference to the version it resolves to and that
// version's fully materialised content, so a hot read skips the header
// probe, version-record decode, heap read and delta walk entirely.
//
// Entries are keyed by (oid, vid), mirroring the paper's two reference
// kinds. A specific reference (o, v) names one immutable version; the
// materialisation cache of the delta tier (DESIGN.md §14) stores those.
// The generic reference (o, oid.NilVID) names whatever version is
// latest; the dereference cache (DESIGN.md §15.4) stores those. Every
// entry records the vid it resolved to, which for a specific reference
// is v itself.
//
// An entry stays valid until its own object changes. Every entry is
// tagged with the (storage shard, commit epoch) of the snapshot that
// filled it, and the cache keeps, per shard slot, a table of epoch
// marks indexed by a hash of the oid. A writer calls Invalidate with
// the epoch its commit will take before that epoch can be published,
// raising the object's mark. A probe hits only when the entry's shard
// is the reader's, its epoch is no newer than the reader's, and the
// object's mark is no newer than the entry's epoch. A fill from a
// snapshot older than the mark is therefore never served, however late
// it lands. Objects sharing a mark stripe only cost each other misses.
// The shard slot in the tag covers reshard moves: a move marks the
// object on both shards, and an entry filled on one shard never serves
// a reader routed to another, whose epoch counter is independent.
//
// The cache is safe for concurrent use. Get copies content out and Put
// copies content in, so callers can never alias cache-owned bytes.
package vcache

import (
	"sync"
	"sync/atomic"

	"ode/internal/oid"
	"ode/internal/storage"
)

// entryOverhead approximates the bookkeeping bytes charged per entry on
// top of its content, so caches full of tiny payloads still respect the
// byte budget.
const entryOverhead = 104

// markBits sizes each shard slot's mark table: 1<<markBits epoch marks,
// 8 KiB. More stripes mean fewer misses from objects sharing a mark,
// but every written shard pays the table in each cache instance.
const markBits = 10

// marks is one shard slot's table of per-object epoch marks.
type marks [1 << markBits]atomic.Uint64

type key struct {
	o oid.OID
	v oid.VID
}

type entry struct {
	k          key
	shard      int
	epoch      uint64
	vid        oid.VID
	content    []byte
	prev, next *entry // LRU list; next is more recent
}

func (e *entry) cost() int64 { return int64(len(e.content)) + entryOverhead }

// bucket is one independently locked LRU segment.
type bucket struct {
	mu    sync.Mutex
	m     map[key]*entry
	head  *entry // least recently used
	tail  *entry // most recently used
	bytes int64
}

// Cache is a sharded LRU of resolved, materialised versions.
type Cache struct {
	buckets []*bucket
	capPer  int64 // byte budget per bucket

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64

	// Per-storage-shard hit/miss counters, indexed by shard slot, for
	// the {shard="i"} metric series. Probes beyond the provisioned
	// range only land in the aggregate counters.
	shardHits   []atomic.Uint64
	shardMisses []atomic.Uint64

	// marks holds each shard slot's mark table, created when the shard
	// is first written. Marks only rise and are never reset.
	marks [storage.MaxSlots]atomic.Pointer[marks]
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Bytes     int64
	Entries   int
}

// New builds a cache bounded by capacity bytes spread over nBuckets
// independently locked segments, tracking per-shard hit rates for up to
// maxShards storage shards (0 tracks none). nBuckets is rounded up to a
// power of two; values < 1 become 1. Content larger than one bucket's
// share of capacity is never admitted.
func New(capacity int64, nBuckets, maxShards int) *Cache {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	c := &Cache{
		buckets:     make([]*bucket, n),
		capPer:      max(capacity, 0) / int64(n),
		shardHits:   make([]atomic.Uint64, max(maxShards, 0)),
		shardMisses: make([]atomic.Uint64, max(maxShards, 0)),
	}
	for i := range c.buckets {
		c.buckets[i] = &bucket{m: make(map[key]*entry)}
	}
	return c
}

func (c *Cache) bucketOf(k key) *bucket {
	// fnv-1a over the two ids; buckets is a power of two.
	h := uint64(14695981039346656037)
	for _, x := range [2]uint64{uint64(k.o), uint64(k.v)} {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return c.buckets[h&uint64(len(c.buckets)-1)]
}

// mark returns o's epoch mark on shard: 0 while the shard has never
// been written, and the maximum for a slot beyond the id space, so
// nothing is ever cached there.
func (c *Cache) mark(o oid.OID, shard int) uint64 {
	if shard < 0 || shard >= len(c.marks) {
		return ^uint64(0)
	}
	t := c.marks[shard].Load()
	if t == nil {
		return 0
	}
	return t[markIndex(o)].Load()
}

// markIndex hashes an oid onto its stripe (Fibonacci hashing: the
// product's top bits depend on every bit of the oid, so consecutive
// per-shard counter values spread over the whole table).
func markIndex(o oid.OID) uint64 {
	return (uint64(o) * 0x9E3779B97F4A7C15) >> (64 - markBits)
}

// Invalidate raises o's mark on shard to w, the epoch the calling
// writer's commit will take: from then on no entry of o filled on that
// shard at an epoch below w is served, and no such fill is stored. The
// writer must call it before epoch w can be published to readers.
// Marks only rise; a mark left by an aborted writer just costs misses.
func (c *Cache) Invalidate(o oid.OID, shard int, w uint64) {
	if shard < 0 || shard >= len(c.marks) {
		return
	}
	t := c.marks[shard].Load()
	if t == nil {
		c.marks[shard].CompareAndSwap(nil, new(marks))
		t = c.marks[shard].Load()
	}
	m := &t[markIndex(o)]
	for {
		cur := m.Load()
		if cur >= w || m.CompareAndSwap(cur, w) {
			return
		}
	}
}

func (c *Cache) count(shard int, hit bool) {
	all, per := &c.misses, c.shardMisses
	if hit {
		all, per = &c.hits, c.shardHits
	}
	all.Add(1)
	if shard >= 0 && shard < len(per) {
		per[shard].Add(1)
	}
}

// Get returns the resolved vid and a copy of the content for the
// reference (o, v) to a reader pinned at (shard, epoch) if an entry
// exists that was filled on that shard at an epoch no newer than the
// reader's and o's mark there has not risen above the fill. An entry
// whose mark has risen above its epoch can never be served again and is
// deleted on the way out; a probe from an older epoch or another shard
// slot misses without evicting a live entry.
func (c *Cache) Get(o oid.OID, v oid.VID, shard int, epoch uint64) (oid.VID, []byte, bool) {
	k := key{o, v}
	b := c.bucketOf(k)
	b.mu.Lock()
	e, ok := b.m[k]
	dead := ok && c.mark(o, e.shard) > e.epoch
	if !ok || dead || e.shard != shard || e.epoch > epoch {
		var freed int64
		if dead {
			b.remove(e)
			freed = e.cost()
		}
		b.mu.Unlock()
		c.bytes.Add(-freed)
		c.count(shard, false)
		return oid.NilVID, nil, false
	}
	b.touch(e)
	out := append([]byte(nil), e.content...)
	vid := e.vid
	b.mu.Unlock()
	c.count(shard, true)
	return vid, out, true
}

// Put stores a copy of content as the reference (o, v)'s resolution to
// vid, read by a snapshot pinned at (shard, epoch), evicting
// least-recently-used entries until the bucket fits its budget. It
// stores nothing when o's mark is already above epoch (the fill is
// stale) or when it would replace an entry filled on the same shard at
// a newer epoch.
func (c *Cache) Put(o oid.OID, v oid.VID, shard int, epoch uint64, vid oid.VID, content []byte) {
	cost := int64(len(content)) + entryOverhead
	if cost > c.capPer || c.mark(o, shard) > epoch {
		return
	}
	e := &entry{k: key{o, v}, shard: shard, epoch: epoch, vid: vid, content: append([]byte(nil), content...)}
	b := c.bucketOf(e.k)
	b.mu.Lock()
	delta := cost
	if old, ok := b.m[e.k]; ok {
		if old.shard == shard && old.epoch > epoch {
			b.mu.Unlock()
			return
		}
		b.remove(old)
		delta -= old.cost()
	}
	b.m[e.k] = e
	b.append(e)
	b.bytes += cost
	var evicted uint64
	for b.bytes > c.capPer {
		victim := b.head
		b.remove(victim)
		delta -= victim.cost()
		evicted++
	}
	b.mu.Unlock()
	c.bytes.Add(delta)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Reset drops every entry.
func (c *Cache) Reset() {
	for _, b := range c.buckets {
		b.mu.Lock()
		freed := b.bytes
		b.m = make(map[key]*entry)
		b.head, b.tail = nil, nil
		b.bytes = 0
		b.mu.Unlock()
		c.bytes.Add(-freed)
	}
}

// Stats snapshots the aggregate cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
	}
	for _, b := range c.buckets {
		b.mu.Lock()
		s.Entries += len(b.m)
		b.mu.Unlock()
	}
	return s
}

// ShardStats reads one storage shard's hit/miss counters (zeros when
// the slot is beyond the tracked range).
func (c *Cache) ShardStats(shard int) (hits, misses uint64) {
	if shard < 0 || shard >= len(c.shardHits) {
		return 0, 0
	}
	return c.shardHits[shard].Load(), c.shardMisses[shard].Load()
}

// --- intrusive LRU list (bucket.mu held) ---

func (b *bucket) append(e *entry) {
	e.prev, e.next = b.tail, nil
	if b.tail != nil {
		b.tail.next = e
	} else {
		b.head = e
	}
	b.tail = e
}

func (b *bucket) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove unlinks e and drops it from the map and the byte count.
func (b *bucket) remove(e *entry) {
	b.unlink(e)
	delete(b.m, e.k)
	b.bytes -= e.cost()
}

func (b *bucket) touch(e *entry) {
	if b.tail == e {
		return
	}
	b.unlink(e)
	b.append(e)
}
