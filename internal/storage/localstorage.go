package storage

import "sort"

// LocalStorage models per-origin DOM storage. Like the cookie jar it
// supports flat and partitioned modes; partitioned browsers key storage
// areas by (top-level site, origin).
type LocalStorage struct {
	mode Mode
	// data maps partition key -> origin -> key -> value.
	data map[string]map[string]map[string]string
}

// NewLocalStorage returns empty storage in the given mode.
func NewLocalStorage(mode Mode) *LocalStorage {
	return &LocalStorage{mode: mode, data: make(map[string]map[string]map[string]string)}
}

func (ls *LocalStorage) partition(firstParty string) string {
	if ls.mode == Partitioned {
		return firstParty
	}
	return ""
}

// Set writes key=value for origin in the storage area selected by the
// top-level site firstParty.
func (ls *LocalStorage) Set(firstParty, origin, key, value string) {
	p := ls.partition(firstParty)
	if ls.data[p] == nil {
		ls.data[p] = make(map[string]map[string]string)
	}
	if ls.data[p][origin] == nil {
		ls.data[p][origin] = make(map[string]string)
	}
	ls.data[p][origin][key] = value
}

// Get reads origin's value for key in the area selected by firstParty.
func (ls *LocalStorage) Get(firstParty, origin, key string) (string, bool) {
	v, ok := ls.data[ls.partition(firstParty)][origin][key]
	return v, ok
}

// Entry is one stored localStorage value, for dataset dumps.
type Entry struct {
	PartitionKey string
	Origin       string
	Key          string
	Value        string
}

// All returns every stored entry in deterministic order.
func (ls *LocalStorage) All() []Entry {
	var out []Entry
	for p, origins := range ls.data {
		for o, kv := range origins {
			for k, v := range kv {
				out = append(out, Entry{PartitionKey: p, Origin: o, Key: k, Value: v})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].PartitionKey != out[b].PartitionKey {
			return out[a].PartitionKey < out[b].PartitionKey
		}
		if out[a].Origin != out[b].Origin {
			return out[a].Origin < out[b].Origin
		}
		return out[a].Key < out[b].Key
	})
	return out
}

// Len reports the number of stored entries.
func (ls *LocalStorage) Len() int {
	n := 0
	for _, origins := range ls.data {
		for _, kv := range origins {
			n += len(kv)
		}
	}
	return n
}

// Clear empties the storage in place, keeping the top-level map's
// storage: a browser Reset between crawl iterations starts each one
// from empty DOM storage, as a fresh browser instance would.
func (ls *LocalStorage) Clear() { clear(ls.data) }
