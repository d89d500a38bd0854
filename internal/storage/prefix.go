package storage

import "strings"

// WithPrefix returns a view of base where every key is transparently
// namespaced under prefix: writes prepend it, Scan results have it stripped.
// This is how N RSM groups share one physical store — each group writes
// through its own prefixed view (GroupPrefix) into the *same* WAL, so the
// WAL's group commit coalesces fsyncs across groups and recovery naturally
// demultiplexes records by prefix. An empty prefix returns base unchanged, so
// group 0 (the legacy layout) reads and writes exactly the keys it always did.
//
// The view preserves base's BufferedStore capability: if base supports
// SetBuffered and DeleteBuffered, so does the view — otherwise callers
// probing with a type assertion (the Paxos event loop's group commit) would
// silently lose fsync batching when running grouped.
func WithPrefix(base Store, prefix string) Store {
	if prefix == "" {
		return base
	}
	p := prefixStore{base: base, prefix: prefix}
	if bs, ok := base.(BufferedStore); ok {
		return &bufferedPrefixStore{prefixStore: p, buffered: bs}
	}
	return &p
}

// GroupPrefix renders the key namespace for one group's records in a shared
// store. Group 0 maps to the empty prefix: a store written by an ungrouped
// node is byte-for-byte a group-0 store, so existing data directories stay
// readable.
func GroupPrefix(gid uint64) string {
	if gid == 0 {
		return ""
	}
	return "g" + uitoa(gid) + "/"
}

// uitoa avoids pulling strconv formatting through the hot path; group IDs are
// small and this is called once per store open, not per write.
func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

type prefixStore struct {
	base   Store
	prefix string
}

func (s *prefixStore) Set(key string, value []byte) error {
	return s.base.Set(s.prefix+key, value)
}

func (s *prefixStore) Get(key string) ([]byte, bool, error) {
	return s.base.Get(s.prefix + key)
}

func (s *prefixStore) Delete(key string) error {
	return s.base.Delete(s.prefix + key)
}

func (s *prefixStore) Scan(prefix string) ([]KV, error) {
	kvs, err := s.base.Scan(s.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]KV, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, KV{Key: strings.TrimPrefix(kv.Key, s.prefix), Value: kv.Value})
	}
	return out, nil
}

func (s *prefixStore) Sync() error { return s.base.Sync() }

type bufferedPrefixStore struct {
	prefixStore
	buffered BufferedStore
}

func (s *bufferedPrefixStore) SetBuffered(key string, value []byte) error {
	return s.buffered.SetBuffered(s.prefix+key, value)
}

func (s *bufferedPrefixStore) DeleteBuffered(key string) error {
	return s.buffered.DeleteBuffered(s.prefix + key)
}
