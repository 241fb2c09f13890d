package operators

import "sort"

// KeyedState is implemented by partitioned-stateful operators whose
// per-key state can be moved between replicas while a topology runs. The
// live reconfigurer uses it to migrate the keys whose replica assignment
// changed when an operator is rescaled: it exports each moved key from
// the old owner's paused instance and imports it into the new owner's.
//
// The exported value is opaque to the runtime; only a matching operator
// implementation needs to understand it. Both methods are called while
// the owning station is paused, so implementations need no locking.
type KeyedState interface {
	// StateKeys returns the keys currently holding state, in ascending
	// order so migrations are deterministic.
	StateKeys() []uint64
	// ExportKey removes and returns one key's state, or nil when the key
	// holds none.
	ExportKey(key uint64) any
	// ImportKey installs state previously returned by ExportKey.
	ImportKey(key uint64, state any)
}

var (
	_ KeyedState = (*aggregate)(nil)
	_ KeyedState = (*dedup)(nil)
)

// keyedMap is per-key state held in a map; an operator that embeds it is
// KeyedState, and each key's value migrates whole (a partially filled
// window keeps its buffered items).
type keyedMap[V any] map[uint64]V

// StateKeys implements KeyedState.
func (m keyedMap[V]) StateKeys() []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ExportKey implements KeyedState.
func (m keyedMap[V]) ExportKey(key uint64) any {
	v, ok := m[key]
	if !ok {
		return nil
	}
	delete(m, key)
	return v
}

// ImportKey implements KeyedState.
func (m keyedMap[V]) ImportKey(key uint64, state any) {
	if v, ok := state.(V); ok {
		m[key] = v
	}
}
