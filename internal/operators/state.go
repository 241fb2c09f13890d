package operators

import (
	"sort"

	"spinstreams/internal/window"
)

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

var _ KeyedState = (*aggregate)(nil)

// StateKeys implements KeyedState.
func (a *aggregate) StateKeys() []uint64 {
	keys := make([]uint64, 0, len(a.byKey))
	for k := range a.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ExportKey implements KeyedState: the window itself is handed over, so a
// partially filled window keeps its buffered items across the migration.
func (a *aggregate) ExportKey(key uint64) any {
	w, ok := a.byKey[key]
	if !ok {
		return nil
	}
	delete(a.byKey, key)
	return w
}

// ImportKey implements KeyedState.
func (a *aggregate) ImportKey(key uint64, state any) {
	w, ok := state.(*window.Count[float64])
	if !ok || w == nil {
		return
	}
	a.byKey[key] = w
}
