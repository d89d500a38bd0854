package storage

import (
	"bytes"
	"testing"
)

func TestGroupPrefix(t *testing.T) {
	cases := []struct {
		gid  uint64
		want string
	}{
		{0, ""}, {1, "g1/"}, {7, "g7/"}, {42, "g42/"}, {1 << 40, "g1099511627776/"},
	}
	for _, c := range cases {
		if got := GroupPrefix(c.gid); got != c.want {
			t.Fatalf("GroupPrefix(%d) = %q, want %q", c.gid, got, c.want)
		}
	}
}

func TestWithPrefixEmptyIsIdentity(t *testing.T) {
	base := NewMem()
	if WithPrefix(base, "") != Store(base) {
		t.Fatal("empty prefix did not return base unchanged")
	}
}

func TestWithPrefixNamespacing(t *testing.T) {
	base := NewMem()
	g1 := WithPrefix(base, GroupPrefix(1))
	g2 := WithPrefix(base, GroupPrefix(2))

	if err := g1.Set("k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := g2.Set("k", []byte("two")); err != nil {
		t.Fatal(err)
	}

	// Views are isolated from each other.
	v, ok, err := g1.Get("k")
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("g1 Get = %q %v %v", v, ok, err)
	}
	v, ok, err = g2.Get("k")
	if err != nil || !ok || !bytes.Equal(v, []byte("two")) {
		t.Fatalf("g2 Get = %q %v %v", v, ok, err)
	}

	// The base sees the physical keys.
	v, ok, err = base.Get("g1/k")
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("base g1/k = %q %v %v", v, ok, err)
	}

	// Scan strips the prefix from results and stays in-namespace.
	if err := g1.Set("ka", []byte("a")); err != nil {
		t.Fatal(err)
	}
	kvs, err := g1.Scan("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("g1 scan: %d results, want 2", len(kvs))
	}
	for _, kv := range kvs {
		if kv.Key != "k" && kv.Key != "ka" {
			t.Fatalf("scan leaked prefixed key %q", kv.Key)
		}
	}
	kvs, err = g2.Scan("k")
	if err != nil || len(kvs) != 1 || kvs[0].Key != "k" {
		t.Fatalf("g2 scan = %v %v", kvs, err)
	}

	// Delete removes only the view's key.
	if err := g1.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := g1.Get("k"); ok {
		t.Fatal("g1 k survived delete")
	}
	if _, ok, _ := g2.Get("k"); !ok {
		t.Fatal("g2 k deleted by g1's delete")
	}
}

// TestWithPrefixPreservesBufferedStore: wrapping a BufferedStore must yield a
// BufferedStore, or the Paxos event loop's type assertion would silently
// disable group commit on grouped replicas.
func TestWithPrefixPreservesBufferedStore(t *testing.T) {
	mem := NewMem() // MemStore implements BufferedStore
	if _, ok := Store(mem).(BufferedStore); !ok {
		t.Skip("MemStore no longer buffered; test needs a new buffered base")
	}
	view := WithPrefix(mem, "g5/")
	bs, ok := view.(BufferedStore)
	if !ok {
		t.Fatal("prefixed view of a BufferedStore lost SetBuffered")
	}
	if err := bs.SetBuffered("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := view.Sync(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := mem.Get("g5/k")
	if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("base g5/k = %q %v %v", v, ok, err)
	}

	// DeleteBuffered goes through the view too: visible at once, stable
	// only after Sync.
	if err := bs.DeleteBuffered("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := view.Get("k"); ok {
		t.Fatal("buffered delete invisible through the view")
	}
	mem.Crash()
	if _, ok, _ := mem.Get("g5/k"); !ok {
		t.Fatal("un-synced buffered delete survived a crash")
	}
	_ = bs.DeleteBuffered("k")
	if err := view.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	if _, ok, _ := mem.Get("g5/k"); ok {
		t.Fatal("synced buffered delete lost in crash")
	}

	// A plain (non-buffered) base must NOT grow a SetBuffered method.
	plain := WithPrefix(plainStore{NewMem()}, "p/")
	if _, ok := plain.(BufferedStore); ok {
		t.Fatal("prefixed view invented SetBuffered on a plain store")
	}
}

// plainStore strips the BufferedStore capability from a MemStore.
type plainStore struct{ s *MemStore }

func (p plainStore) Set(key string, value []byte) error   { return p.s.Set(key, value) }
func (p plainStore) Get(key string) ([]byte, bool, error) { return p.s.Get(key) }
func (p plainStore) Delete(key string) error              { return p.s.Delete(key) }
func (p plainStore) Scan(prefix string) ([]KV, error)     { return p.s.Scan(prefix) }
func (p plainStore) Sync() error                          { return p.s.Sync() }
