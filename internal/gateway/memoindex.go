package gateway

import (
	"sync"

	"mathcloud/internal/core"
)

// memoIndex is the gateway's one digest→replica map (DESIGN.md §5j): which
// replica holds, or is computing, the result for a canonical input digest.
// It has two writers that share one ownership path:
//
//   - each replica's memo delta feed (GET /memo?since=N), which confirms
//     the results a replica actually caches — so the index survives gateway
//     restarts and covers results produced by other gateways or by direct
//     replica submissions;
//   - claims: on a 201 for a deterministic submission the gateway records
//     the placement at once, so an identical resubmission arriving before
//     the next feed poll joins the same flight or cached result.
//
// The feed never confirms a claim whose job failed, nor one for file-bearing
// inputs (the gateway hashes file references literally, the replica by
// content).  Claims are therefore bounded by the replica's own load report:
// see Gateway.pollReplicaLoad, which re-lists a replica whose attributed key
// count exceeds what its memo, queue and workers can account for.
//
// The index stores at most one replica per key.  Deterministic results are
// content-addressed, so when two replicas both hold a key either copy is as
// good as the other; last writer wins.
type memoIndex struct {
	mu    sync.RWMutex
	byKey map[string]string // canonical digest -> replica name
	// keysByReplica mirrors byKey for O(keys of replica) Reset handling and
	// per-replica counts.
	keysByReplica map[string]map[string]struct{}
}

func newMemoIndex() *memoIndex {
	return &memoIndex{
		byKey:         make(map[string]string),
		keysByReplica: make(map[string]map[string]struct{}),
	}
}

// lookup returns the replica believed to hold a memoised result for key.
func (x *memoIndex) lookup(key string) (replica string, ok bool) {
	x.mu.RLock()
	replica, ok = x.byKey[key]
	x.mu.RUnlock()
	return replica, ok
}

// apply folds one page of a replica's memo delta feed into the index.  A
// Reset page replaces everything previously attributed to the replica —
// including claims the replica never confirmed; an incremental page adds
// Entries and removes Dropped keys.
func (x *memoIndex) apply(replica string, page core.MemoIndexPage) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if page.Reset {
		x.dropReplicaLocked(replica)
	}
	for _, e := range page.Entries {
		x.ownLocked(replica, e.Key)
	}
	keys := x.keysByReplica[replica]
	for _, key := range page.Dropped {
		// Only forget the key if this replica is still its owner of
		// record; another replica may have claimed it since.
		if owner, ok := x.byKey[key]; ok && owner == replica {
			delete(x.byKey, key)
		}
		delete(keys, key)
	}
}

// claim attributes key to the replica a submission was just placed on.
func (x *memoIndex) claim(replica, key string) {
	x.mu.Lock()
	x.ownLocked(replica, key)
	x.mu.Unlock()
}

// ownLocked makes replica the owner of record of key, moving it out of the
// previous owner's key set.  Callers must hold x.mu.
func (x *memoIndex) ownLocked(replica, key string) {
	if prev, ok := x.byKey[key]; ok && prev != replica {
		delete(x.keysByReplica[prev], key)
	}
	x.byKey[key] = replica
	keys := x.keysByReplica[replica]
	if keys == nil {
		keys = make(map[string]struct{})
		x.keysByReplica[replica] = keys
	}
	keys[key] = struct{}{}
}

// dropReplicaLocked forgets every key attributed to the replica (a Reset
// page).  Callers must hold x.mu.
func (x *memoIndex) dropReplicaLocked(replica string) {
	for key := range x.keysByReplica[replica] {
		if owner, ok := x.byKey[key]; ok && owner == replica {
			delete(x.byKey, key)
		}
	}
	delete(x.keysByReplica, replica)
}

// size reports the number of indexed keys (for tests and status).
func (x *memoIndex) size() int {
	x.mu.RLock()
	n := len(x.byKey)
	x.mu.RUnlock()
	return n
}

// count reports the number of keys attributed to one replica.
func (x *memoIndex) count(replica string) int {
	x.mu.RLock()
	n := len(x.keysByReplica[replica])
	x.mu.RUnlock()
	return n
}
