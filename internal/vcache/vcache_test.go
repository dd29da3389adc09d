package vcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ode/internal/oid"
)

// latest is the vid of a generic reference: whatever version is latest.
const latest = oid.NilVID

// refKind is one kind of reference: the generic reference (o, NilVID)
// of the dereference cache or the specific reference (o, v) of the
// materialisation cache.
type refKind func(i uint64) (oid.OID, oid.VID)

var (
	generic  refKind = func(i uint64) (oid.OID, oid.VID) { return oid.OID(i), latest }
	specific refKind = func(i uint64) (oid.OID, oid.VID) { return oid.OID(i), oid.VID(i + 1000) }
)

// --- generic references: oid → (latest vid, content) ---

func TestGetMissThenHit(t *testing.T) {
	c := New(1<<20, 4, 8)
	if _, _, ok := c.Get(7, latest, 0, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, latest, 0, 1, 42, []byte("hello"))
	vid, content, ok := c.Get(7, latest, 0, 1)
	if !ok || vid != 42 || !bytes.Equal(content, []byte("hello")) {
		t.Fatalf("got (%d, %q, %v), want (42, hello, true)", vid, content, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss 1 entry", st)
	}
	h, m := c.ShardStats(0)
	if h != 1 || m != 1 {
		t.Fatalf("shard stats (%d,%d), want (1,1)", h, m)
	}
}

func TestEpochTagMismatchNeverServes(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, latest, 0, 5, 42, []byte("v5"))

	// Reader older than the fill: must miss but must NOT evict the
	// entry.
	if _, _, ok := c.Get(7, latest, 0, 4); ok {
		t.Fatal("served an entry to a reader older than its fill")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatal("older-epoch probe evicted a live entry")
	}

	// Newer readers hit while the object is unchanged.
	for _, e := range []uint64{5, 6, 9} {
		if _, _, ok := c.Get(7, latest, 0, e); !ok {
			t.Fatalf("reader at epoch %d missed an unchanged object", e)
		}
	}

	// A write at epoch 6: the entry is stale for every reader from 6
	// on, must miss AND be dropped.
	c.Invalidate(7, 0, 6)
	for _, e := range []uint64{6, 9} {
		if _, _, ok := c.Get(7, latest, 0, e); ok {
			t.Fatalf("served an epoch-5 entry at epoch %d after a write at 6", e)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry not dropped: %+v", st)
	}

	// Different shard slot, same epoch value: must miss, must not evict.
	c.Put(7, latest, 0, 6, 43, []byte("v6"))
	if _, _, ok := c.Get(7, latest, 1, 6); ok {
		t.Fatal("served entry tagged with a different shard")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatal("cross-shard probe evicted an entry")
	}

	// The fill after the write hits.
	if vid, _, ok := c.Get(7, latest, 0, 6); !ok || vid != 43 {
		t.Fatalf("fill after the write = (%v, %v), want (43, true)", vid, ok)
	}
}

// TestLateFillAfterInvalidateNeverServed is the race the marks close: a
// reader pinned before a write fills the cache after the writer marked.
func TestLateFillAfterInvalidateNeverServed(t *testing.T) {
	for name, ref := range map[string]refKind{"generic": generic, "specific": specific} {
		t.Run(name, func(t *testing.T) {
			c := New(1<<20, 4, 8)
			o, v := ref(3)
			const w = 10
			c.Invalidate(o, 2, w)
			c.Put(o, v, 2, w-1, 1, []byte("pre-write content"))
			for _, e := range []uint64{w, w + 5} {
				if _, _, ok := c.Get(o, v, 2, e); ok {
					t.Fatalf("late fill from epoch %d served at epoch %d", w-1, e)
				}
			}
			if st := c.Stats(); st.Entries != 0 {
				t.Fatalf("late fill stored: %+v", st)
			}
			// A fill at the write's epoch is current and serves.
			c.Put(o, v, 2, w, 2, []byte("post-write content"))
			if vid, got, ok := c.Get(o, v, 2, w+5); !ok || vid != 2 || string(got) != "post-write content" {
				t.Fatalf("fill at the write's epoch = (%v, %q, %v)", vid, got, ok)
			}
		})
	}
}

func TestInvalidateScope(t *testing.T) {
	c := New(1<<20, 4, 8)
	for o := oid.OID(1); o <= 64; o++ {
		c.Put(o, latest, 0, 1, oid.VID(o), []byte("x"))
	}
	c.Put(1, 500, 1, 1, 500, []byte("x"))
	c.Invalidate(1, 0, 2)
	// Object 1's entry filled on shard 1 (its own, independent mark
	// table) survives; so do the other objects on shard 0 outside
	// object 1's stripe.
	if _, _, ok := c.Get(1, 500, 1, 2); !ok {
		t.Fatal("a write on shard 0 invalidated shard 1")
	}
	if _, _, ok := c.Get(1, latest, 0, 2); ok {
		t.Fatal("written object served")
	}
	hits := 0
	for o := oid.OID(2); o <= 64; o++ {
		if _, _, ok := c.Get(o, latest, 0, 2); ok {
			hits++
		} else if markIndex(o) != markIndex(1) {
			t.Fatalf("object %d outside the written stripe missed", o)
		}
	}
	if hits < 56 {
		t.Fatalf("%d of 63 untouched objects hit", hits)
	}
	// Marks survive Reset: a late fill after a Reset is still refused.
	c.Reset()
	c.Put(1, latest, 0, 1, 1, []byte("x"))
	if _, _, ok := c.Get(1, latest, 0, 2); ok {
		t.Fatal("Reset forgot a mark")
	}
	// Out-of-range slots never cache and never panic.
	for _, s := range []int{-1, 1 << 20} {
		c.Invalidate(1, s, 5)
		c.Put(1, latest, s, 5, 1, []byte("x"))
		if _, _, ok := c.Get(1, latest, s, 5); ok {
			t.Fatalf("slot %d cached an entry", s)
		}
	}
}

// TestOlderFillKeepsNewerEntry: a reader pinned before another reader's
// fill must not replace the newer entry with its older one.
func TestOlderFillKeepsNewerEntry(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, latest, 0, 6, 43, []byte("v6"))
	c.Put(7, latest, 0, 5, 42, []byte("v5"))
	if vid, got, ok := c.Get(7, latest, 0, 6); !ok || vid != 43 || string(got) != "v6" {
		t.Fatalf("got (%d, %q, %v), want the epoch-6 fill", vid, got, ok)
	}
	// A fill for another shard slot replaces it (placement moved).
	c.Put(7, latest, 1, 2, 44, []byte("moved"))
	if vid, _, ok := c.Get(7, latest, 1, 2); !ok || vid != 44 {
		t.Fatal("fill on the new shard slot not stored")
	}
}

func TestPutReplacesEntry(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, latest, 0, 5, 42, []byte("old"))
	c.Put(7, latest, 0, 6, 43, []byte("newer"))
	vid, content, ok := c.Get(7, latest, 0, 6)
	if !ok || vid != 43 || string(content) != "newer" {
		t.Fatalf("got (%d, %q, %v) after replace", vid, content, ok)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("replace left %d entries", st.Entries)
	}
	want := int64(len("newer")) + entryOverhead
	if st.Bytes != want {
		t.Fatalf("bytes %d after replace, want %d", st.Bytes, want)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// One bucket with room for ~4 entries of 100 bytes + overhead.
	per := int64(4 * (100 + entryOverhead))
	c := New(per, 1, 8)
	payload := make([]byte, 100)
	for i := 0; i < 32; i++ {
		c.Put(oid.OID(i), latest, 0, 1, oid.VID(i), payload)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 8x overcommit")
	}
	if st.Bytes > per {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, per)
	}
	if st.Entries == 0 || st.Entries > 4 {
		t.Fatalf("entries %d after pressure, want 1..4", st.Entries)
	}
	// Most recent insert survives, oldest is gone.
	if _, _, ok := c.Get(31, latest, 0, 1); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, _, ok := c.Get(0, latest, 0, 1); ok {
		t.Fatal("oldest entry survived 8x overcommit")
	}
}

func TestLRUTouchOrder(t *testing.T) {
	per := int64(2 * (10 + entryOverhead))
	c := New(per, 1, 8)
	c.Put(1, latest, 0, 1, 1, make([]byte, 10))
	c.Put(2, latest, 0, 1, 2, make([]byte, 10))
	// Touch 1 so 2 becomes the LRU victim.
	if _, _, ok := c.Get(1, latest, 0, 1); !ok {
		t.Fatal("expected hit on 1")
	}
	c.Put(3, latest, 0, 1, 3, make([]byte, 10))
	if _, _, ok := c.Get(1, latest, 0, 1); !ok {
		t.Fatal("recently touched entry was evicted")
	}
	if _, _, ok := c.Get(2, latest, 0, 1); ok {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestGetCopiesOut(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(1, latest, 0, 1, 1, []byte("abc"))
	_, content, ok := c.Get(1, latest, 0, 1)
	if !ok {
		t.Fatal("miss")
	}
	content[0] = 'X'
	_, again, _ := c.Get(1, latest, 0, 1)
	if string(again) != "abc" {
		t.Fatal("caller mutation leaked into cache-owned bytes")
	}
}

// --- specific references: (oid, vid) → content ---

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1<<20, 4, 0)
	c.Put(1, 2, 0, 7, 2, []byte("hello"))
	vid, got, ok := c.Get(1, 2, 0, 7)
	if !ok || vid != 2 || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("get = %d, %q, %v; want 2, hello, true", vid, got, ok)
	}
	if _, _, ok := c.Get(1, 3, 0, 7); ok {
		t.Fatal("unexpected hit for absent version")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
	// maxShards 0 tracks no per-shard series.
	if h, m := c.ShardStats(0); h != 0 || m != 0 {
		t.Fatalf("untracked shard stats = (%d,%d)", h, m)
	}
}

func TestEpochAndShardTagMismatch(t *testing.T) {
	c := New(1<<20, 1, 0)
	c.Put(9, 9, 1, 5, 9, []byte("v-at-epoch-5"))
	// Reader older than the fill: must miss.
	if _, _, ok := c.Get(9, 9, 1, 4); ok {
		t.Fatal("served an entry to a reader older than its fill")
	}
	// Same shard, after a write at epoch 6: stale entry must not be
	// served and must be dropped.
	c.Invalidate(9, 1, 6)
	if _, _, ok := c.Get(9, 9, 1, 6); ok {
		t.Fatal("served an entry filled before the object changed")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale entry not dropped: %+v", st)
	}
	// Same epoch number, different shard slot (reshard coincidence).
	c.Put(9, 9, 1, 6, 9, []byte("v"))
	if _, _, ok := c.Get(9, 9, 2, 6); ok {
		t.Fatal("served entry tagged for another shard")
	}
}

func TestCopyOnGetAndPut(t *testing.T) {
	c := New(1<<20, 1, 0)
	src := []byte("immutable")
	c.Put(1, 1, 0, 1, 1, src)
	src[0] = 'X' // caller mutates its buffer after Put
	_, got, ok := c.Get(1, 1, 0, 1)
	if !ok || string(got) != "immutable" {
		t.Fatalf("cache aliased caller's Put buffer: %q", got)
	}
	got[0] = 'Y' // caller mutates the Get result
	_, again, _ := c.Get(1, 1, 0, 1)
	if string(again) != "immutable" {
		t.Fatalf("cache aliased Get result: %q", again)
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New(1<<20, 1, 0)
	c.Put(1, 1, 0, 1, 1, []byte("old"))
	c.Put(1, 1, 0, 2, 1, []byte("newer-content"))
	if _, _, ok := c.Get(1, 1, 0, 1); ok {
		t.Fatal("old epoch still served after overwrite")
	}
	_, got, ok := c.Get(1, 1, 0, 2)
	if !ok || string(got) != "newer-content" {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("overwrite duplicated entry: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// One bucket, room for roughly 4 entries of 100 bytes + overhead.
	c := New(4*(100+entryOverhead), 1, 0)
	pay := make([]byte, 100)
	for i := 0; i < 6; i++ {
		c.Put(oid.OID(i), oid.VID(i), 0, 1, oid.VID(i), pay)
	}
	// 0 and 1 are the least recently used and must be gone.
	if _, _, ok := c.Get(0, 0, 0, 1); ok {
		t.Fatal("LRU entry 0 survived eviction")
	}
	if _, _, ok := c.Get(1, 1, 0, 1); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for i := 2; i < 6; i++ {
		if _, _, ok := c.Get(oid.OID(i), oid.VID(i), 0, 1); !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d; want 2", st.Evictions)
	}
	if st.Bytes > 4*(100+entryOverhead) {
		t.Fatalf("bytes %d exceeds budget", st.Bytes)
	}
}

func TestTouchKeepsHotEntry(t *testing.T) {
	c := New(3*(10+entryOverhead), 1, 0)
	pay := make([]byte, 10)
	c.Put(1, 1, 0, 1, 1, pay)
	c.Put(2, 2, 0, 1, 2, pay)
	c.Put(3, 3, 0, 1, 3, pay)
	c.Get(1, 1, 0, 1) // touch 1: now 2 is the LRU
	c.Put(4, 4, 0, 1, 4, pay)
	if _, _, ok := c.Get(2, 2, 0, 1); ok {
		t.Fatal("expected 2 to be evicted (1 was touched)")
	}
	if _, _, ok := c.Get(1, 1, 0, 1); !ok {
		t.Fatal("touched entry 1 was evicted")
	}
}

// --- checks run for each reference kind ---

func TestOversizedContentNotCached(t *testing.T) { checkOversize(t, generic) }

func TestOversizeAndZeroCapacity(t *testing.T) {
	checkOversize(t, specific)
	z := New(0, 4, 8)
	z.Put(1, 2, 0, 1, 2, []byte("x"))
	if _, _, ok := z.Get(1, 2, 0, 1); ok {
		t.Fatal("zero-capacity cache accepted an entry")
	}
	n := New(-5, 0, -1) // degenerate arguments must not panic
	n.Put(1, 2, 0, 1, 2, []byte("x"))
	n.Get(1, 2, 0, 1)
}

// checkOversize stores content larger than the whole budget and checks
// it is neither kept nor served.
func checkOversize(t *testing.T, ref refKind) {
	t.Helper()
	o, v := ref(1)
	c := New(256, 1, 8)
	c.Put(o, v, 0, 1, 1, make([]byte, 1024))
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized content was cached: %+v", st)
	}
	if _, _, ok := c.Get(o, v, 0, 1); ok {
		t.Fatal("oversized content was served")
	}
}

func TestResetGeneric(t *testing.T) { checkReset(t, generic) }

func TestReset(t *testing.T) { checkReset(t, specific) }

func checkReset(t *testing.T, ref refKind) {
	t.Helper()
	c := New(1<<20, 8, 8)
	for i := uint64(0); i < 64; i++ {
		o, v := ref(i)
		c.Put(o, v, 0, 1, oid.VID(i), []byte("payload"))
	}
	c.Reset()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("reset left %d entries, %d bytes", st.Entries, st.Bytes)
	}
	o, v := ref(3)
	if _, _, ok := c.Get(o, v, 0, 1); ok {
		t.Fatal("entry survived Reset")
	}
}

// TestConcurrentAccess hammers the cache with generic references only.
func TestConcurrentAccess(t *testing.T) { hammer(t, generic) }

// TestConcurrent mixes both reference kinds in one instance.
func TestConcurrent(t *testing.T) { hammer(t, generic, specific) }

// hammerShard models one storage shard for hammer: a writer mutex, the
// published epoch readers pin, and the epochs each object was written
// at, so the content any snapshot must see is known.
type hammerShard struct {
	writer    sync.Mutex
	published atomic.Uint64
	mu        sync.RWMutex
	writes    map[oid.OID][]uint64 // ascending commit epochs
}

// lastWrite returns the epoch of o's newest write visible at epoch e
// (0 when none is).
func (s *hammerShard) lastWrite(o oid.OID, e uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ws := s.writes[o]
	i := sort.Search(len(ws), func(i int) bool { return ws[i] > e })
	if i == 0 {
		return 0
	}
	return ws[i-1]
}

// hammer drives the cache from many goroutines under -race, with the
// given reference kinds on shard slots inside and outside the tracked
// range. Writer goroutines commit like the engine does: under the
// shard's writer mutex, Invalidate at the next epoch, then publish it.
// Readers pin a published epoch (sometimes an older one), fill with the
// content that snapshot sees and check every hit returns exactly the
// content of the object's newest write visible at the reader's epoch —
// so no hit ever carries content filled before the object's last mark.
func hammer(t *testing.T, kinds ...refKind) {
	t.Helper()
	c := New(64<<10, 4, 2)
	var shards [4]hammerShard
	for i := range shards {
		shards[i].writes = map[oid.OID][]uint64{}
	}
	content := func(o oid.OID, v oid.VID, shard int, written uint64) []byte {
		return []byte(fmt.Sprintf("content-%d-%d-%d-%d", o, v, shard, written))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				o, _ := generic(uint64(rng.Intn(16)))
				shard := rng.Intn(4)
				s := &shards[shard]
				s.writer.Lock()
				e := s.published.Load() + 1
				c.Invalidate(o, shard, e)
				s.mu.Lock()
				s.writes[o] = append(s.writes[o], e)
				s.mu.Unlock()
				s.published.Store(e)
				s.writer.Unlock()
			}
		}(int64(100 + w))
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				o, v := kinds[rng.Intn(len(kinds))](uint64(rng.Intn(16)))
				shard := rng.Intn(4)
				s := &shards[shard]
				epoch := s.published.Load()
				epoch -= min(epoch, uint64(rng.Intn(3))) // sometimes an older pin
				written := s.lastWrite(o, epoch)
				vid := oid.VID(uint64(o)*1000 + written)
				want := content(o, v, shard, written)
				if rng.Intn(2) == 0 {
					c.Put(o, v, shard, epoch, vid, want)
				} else if gotVid, got, ok := c.Get(o, v, shard, epoch); ok {
					if gotVid != vid || !bytes.Equal(got, want) {
						panic(fmt.Sprintf("hit at epoch %d returned (%d, %q), want (%d, %q)", epoch, gotVid, got, vid, want))
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits: the hammer exercised nothing")
	}
	if st.Bytes < 0 || st.Bytes > 64<<10 {
		t.Fatalf("byte accounting out of range: %+v", st)
	}
	var tracked uint64
	for s := 0; s < 4; s++ {
		h, m := c.ShardStats(s)
		tracked += h + m
	}
	if tracked == 0 || tracked >= st.Hits+st.Misses {
		t.Fatalf("per-shard probes %d, want some but fewer than all %d", tracked, st.Hits+st.Misses)
	}
}

// TestGenericAndSpecificSideBySide keeps a generic reference and
// specific references of the same object in one instance: they are
// distinct entries, each hit returns its own resolution, and an epoch
// advance drops each one only when it is probed.
func TestGenericAndSpecificSideBySide(t *testing.T) {
	c := New(1<<20, 4, 8)
	c.Put(5, 10, 0, 1, 10, []byte("v10"))
	c.Put(5, 11, 0, 1, 11, []byte("v11"))
	c.Put(5, latest, 0, 1, 11, []byte("v11"))
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	for _, p := range []struct {
		v, want oid.VID
		content string
	}{{10, 10, "v10"}, {11, 11, "v11"}, {latest, 11, "v11"}} {
		vid, got, ok := c.Get(5, p.v, 0, 1)
		if !ok || vid != p.want || string(got) != p.content {
			t.Fatalf("Get(o5, %v) = (%v, %q, %v), want (%v, %q, true)", p.v, vid, got, ok, p.want, p.content)
		}
	}

	// A commit at epoch 2 makes v12 latest: the reader at epoch 2 drops
	// the stale generic entry and caches the new latest; the specific
	// entries share the object's mark, so they stop serving too, and
	// stay until probed themselves.
	c.Invalidate(5, 0, 2)
	if _, _, ok := c.Get(5, latest, 0, 2); ok {
		t.Fatal("stale latest served after the epoch advanced")
	}
	c.Put(5, latest, 0, 2, 12, []byte("v12"))
	if vid, got, ok := c.Get(5, latest, 0, 2); !ok || vid != 12 || string(got) != "v12" {
		t.Fatalf("new latest = (%v, %q, %v)", vid, got, ok)
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d after the generic refresh, want 3", st.Entries)
	}
	if _, _, ok := c.Get(5, 10, 0, 2); ok {
		t.Fatal("specific entry from epoch 1 served at epoch 2")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (v11 not yet probed and the new latest)", st.Entries)
	}
	// The marked object's old entries cost even a reader still pinned
	// at epoch 1 a miss (the new latest is too new for it).
	if _, _, ok := c.Get(5, 11, 0, 1); ok {
		t.Fatal("served an entry of a written object filled before its mark")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (the new latest)", st.Entries)
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("reset left %+v", st)
	}
}
