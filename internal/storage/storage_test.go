package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	s := NewMem()
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("empty store has key")
	}
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("delete did not remove key")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewMem()
	_ = s.Set("k", []byte("abc"))
	v, _, _ := s.Get("k")
	v[0] = 'z'
	v2, _, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get leaked internal buffer")
	}
}

func TestSetCopiesInput(t *testing.T) {
	s := NewMem()
	buf := []byte("abc")
	_ = s.Set("k", buf)
	buf[0] = 'z'
	v, _, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Set retained caller buffer")
	}
}

func TestScanSortedByKey(t *testing.T) {
	s := NewMem()
	_ = s.Set("log/3", []byte("c"))
	_ = s.Set("log/1", []byte("a"))
	_ = s.Set("log/2", []byte("b"))
	_ = s.Set("other", []byte("x"))
	kvs, err := s.Scan("log/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i, want := range []string{"log/1", "log/2", "log/3"} {
		if kvs[i].Key != want {
			t.Fatalf("scan order: %v", kvs)
		}
	}
}

func TestCrashDiscardsUnsynced(t *testing.T) {
	s := NewMemWithOptions(MemOptions{AutoSync: false})
	_ = s.Set("durable", []byte("1"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = s.Set("volatile", []byte("2"))
	_ = s.Delete("durable")

	// Before crash, the writer sees its own writes.
	if _, ok, _ := s.Get("volatile"); !ok {
		t.Fatal("dirty write invisible to writer")
	}
	if _, ok, _ := s.Get("durable"); ok {
		t.Fatal("dirty delete invisible to writer")
	}

	s.Crash()

	if _, ok, _ := s.Get("volatile"); ok {
		t.Fatal("un-synced write survived crash")
	}
	v, ok, _ := s.Get("durable")
	if !ok || string(v) != "1" {
		t.Fatal("synced write lost in crash")
	}
}

func TestAutoSyncSurvivesCrash(t *testing.T) {
	s := NewMem()
	_ = s.Set("k", []byte("v"))
	s.Crash()
	if _, ok, _ := s.Get("k"); !ok {
		t.Fatal("auto-synced write lost in crash")
	}
}

func TestScanSeesDirtyOverlay(t *testing.T) {
	s := NewMemWithOptions(MemOptions{AutoSync: false})
	_ = s.Set("p/a", []byte("1"))
	_ = s.Sync()
	_ = s.Set("p/b", []byte("2"))
	_ = s.Delete("p/a")
	kvs, _ := s.Scan("p/")
	if len(kvs) != 1 || kvs[0].Key != "p/b" {
		t.Fatalf("overlay scan wrong: %v", kvs)
	}
}

func TestClosedStoreFails(t *testing.T) {
	s := NewMem()
	s.Close()
	if err := s.Set("k", nil); err == nil {
		t.Fatal("Set after Close succeeded")
	}
	if _, _, err := s.Get("k"); err == nil {
		t.Fatal("Get after Close succeeded")
	}
	if _, err := s.Scan(""); err == nil {
		t.Fatal("Scan after Close succeeded")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after Close succeeded")
	}
	if err := s.Delete("k"); err == nil {
		t.Fatal("Delete after Close succeeded")
	}
}

func TestWriteAndSyncCounters(t *testing.T) {
	s := NewMemWithOptions(MemOptions{AutoSync: false})
	_ = s.Set("a", nil)
	_ = s.Set("b", nil)
	_ = s.Delete("a")
	if s.Writes() != 3 {
		t.Fatalf("writes = %d", s.Writes())
	}
	if s.Syncs() != 0 {
		t.Fatalf("syncs = %d", s.Syncs())
	}
	_ = s.Sync()
	if s.Syncs() != 1 {
		t.Fatalf("syncs = %d", s.Syncs())
	}
	if s.Len() != 1 {
		t.Fatalf("stable len = %d", s.Len())
	}
}

// TestMemStoreDeleteBuffered: a staged delete is visible to reads at once
// but reaches stable state only at the next Sync, even with AutoSync on.
func TestMemStoreDeleteBuffered(t *testing.T) {
	s := NewMem()
	_ = s.Set("k", []byte("v"))
	if err := s.DeleteBuffered("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("buffered delete invisible to the writer")
	}
	if kvs, _ := s.Scan("k"); len(kvs) != 0 {
		t.Fatalf("scan still sees buffered-deleted key: %v", kvs)
	}
	s.Crash()
	if v, ok, _ := s.Get("k"); !ok || string(v) != "v" {
		t.Fatal("un-synced buffered delete survived a crash")
	}
	_ = s.DeleteBuffered("k")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("synced buffered delete lost in crash")
	}
	s.Close()
	if err := s.DeleteBuffered("k"); err == nil {
		t.Fatal("DeleteBuffered after Close succeeded")
	}
}

// TestSlotKeyMatchesSprintf pins SlotKey to its original fmt rendering, so
// keys already on disk keep their names and Scan keeps its order.
func TestSlotKeyMatchesSprintf(t *testing.T) {
	slots := []uint64{0, 9, 10, 1e19, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		slots = append(slots, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, prefix := range []string{"", "pxs/7/dec/", "g3/pxs/1/acc/"} {
		keys := make([]string, 0, len(slots))
		for _, slot := range slots {
			got, want := SlotKey(prefix, slot), fmt.Sprintf("%s%020d", prefix, slot)
			if got != want {
				t.Fatalf("SlotKey(%q, %d) = %q, want %q", prefix, slot, got, want)
			}
			keys = append(keys, got)
		}
		sorted := append([]uint64(nil), slots...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		sort.Strings(keys)
		for i, k := range keys {
			if k != SlotKey(prefix, sorted[i]) {
				t.Fatalf("sorted keys diverge from numeric order at %d: %q", i, k)
			}
		}
	}
}

func TestSlotKeyOrdering(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := SlotKey("log/", a), SlotKey("log/", b)
		return (a < b) == (ka < kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d/%d", g, i)
				_ = s.Set(key, []byte{byte(i)})
				if _, ok, _ := s.Get(key); !ok {
					t.Errorf("lost own write %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStorePropertyLastWriteWins(t *testing.T) {
	f := func(writes []uint8) bool {
		s := NewMem()
		var last []byte
		for _, w := range writes {
			last = []byte{w}
			_ = s.Set("k", last)
		}
		v, ok, _ := s.Get("k")
		if len(writes) == 0 {
			return !ok
		}
		return ok && v[0] == last[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
