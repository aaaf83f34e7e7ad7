package gateway

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"time"

	"mathcloud/internal/core"
)

// Placement answers one question: which replica should serve this request?
//
// Reads about a service (describe, merged listings) follow rendezvous
// (highest-random-weight) hashing over (service, replica): every gateway
// instance computes the same preference order with no shared state, and the
// order degrades minimally when a replica leaves — only the services that
// ranked it first move.  Work placement (job and sweep submission) must
// instead SPREAD: rendezvous alone would pin each service to one replica and
// cap its throughput at a single container.  Three refinements bend the
// spread toward cache locality and away from hot replicas (DESIGN.md §5j):
//
//   - deterministic services consult the memo index: a digest of the
//     canonical submission (core.CanonicalHash) routes an identical
//     resubmission to the replica whose computation cache already holds the
//     result, or that this gateway placed it on (a claim, see memoindex.go);
//   - fresh placements use power-of-two-choices over the queue depth each
//     replica advertises on GET /load: pick two candidates, send the job to
//     the shorter queue.  P2c tracks load skew exponentially better than
//     blind round-robin while touching only two load samples per decision;
//   - when every candidate advertises a full queue the gateway refuses
//     admission outright (503 + Retry-After) instead of burning a proxy hop
//     on a replica that would reject the job anyway.

// rendezvousScore ranks one (service, replica) pair.  FNV-1a over the joint
// key is cheap, stateless and stable across processes.
func rendezvousScore(service, replica string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(service))
	h.Write([]byte{0})
	h.Write([]byte(replica))
	return h.Sum64()
}

// candEntry caches one service's sorted candidate list.  The entry is valid
// while the gateway topology generation it was computed under still matches
// g.topoGen; any health flip or service-set change bumps the generation and
// lazily invalidates every entry.  This keeps the per-submit cost at one
// atomic load instead of a full replica scan with per-replica locking.
type candEntry struct {
	gen      uint64
	replicas []*replicaState
}

// serviceReplicas returns the healthy replicas currently advertising the
// service, sorted by descending rendezvous score (ties broken by name so the
// order is total).  Results are cached per service until the topology
// generation changes.
func (g *Gateway) serviceReplicas(service string) []*replicaState {
	gen := g.topoGen.Load()
	g.candMu.Lock()
	if e, ok := g.candCache[service]; ok && e.gen == gen {
		out := e.replicas
		g.candMu.Unlock()
		return out
	}
	g.candMu.Unlock()

	var out []*replicaState
	for _, rs := range g.replicas {
		if !rs.isHealthy() {
			continue
		}
		if _, ok := rs.describe(service); !ok {
			continue
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := rendezvousScore(service, out[i].name), rendezvousScore(service, out[j].name)
		if si != sj {
			return si > sj
		}
		return out[i].name < out[j].name
	})

	g.candMu.Lock()
	// Tag the entry with the generation observed BEFORE the scan: if the
	// topology changed mid-scan the entry is already stale and the next
	// caller recomputes.
	g.candCache[service] = &candEntry{gen: gen, replicas: out}
	g.candMu.Unlock()
	return out
}

// serviceKnown reports whether any replica — healthy or not — has ever
// advertised the service, distinguishing "no such service" (404) from "no
// healthy replica right now" (502).
func (g *Gateway) serviceKnown(service string) bool {
	for _, rs := range g.replicas {
		if _, ok := rs.describe(service); ok {
			return true
		}
	}
	return false
}

// homeReplica returns the rendezvous-preferred healthy replica for reads
// about a service.
func (g *Gateway) homeReplica(service string) (*replicaState, bool) {
	c := g.serviceReplicas(service)
	if len(c) == 0 {
		return nil, false
	}
	return c[0], true
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed bijection used to derive two independent candidate indices from
// the monotonically increasing cursor without math/rand (deterministic under
// test, no seed state to share).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// spreadReplica picks the next submission target among candidates by
// power-of-two-choices: the round-robin cursor nominates the primary
// candidate and a splitmix64-derived second index challenges it; the
// challenger wins only with a strictly shorter advertised queue.  Under
// uniform (or not yet polled) load every challenge ties and the spread is
// exact round-robin, while a skewed federation drains toward the replicas
// with headroom.  A single candidate needs no challenge.
func (g *Gateway) spreadReplica(candidates []*replicaState) *replicaState {
	n := g.rrCursor.Add(1)
	i := int((n - 1) % uint64(len(candidates)))
	if len(candidates) == 1 {
		return candidates[i]
	}
	k := int(splitmix64(n) % uint64(len(candidates)))
	if k == i {
		k = (k + 1) % len(candidates)
	}
	if candidates[k].queueDepth() < candidates[i].queueDepth() {
		return candidates[k]
	}
	return candidates[i]
}

// saturated reports whether every candidate advertises a full queue.  A
// replica with no load report (loadOK false) or an unbounded queue never
// counts as saturated — admission control only refuses work when it has
// positive evidence that nobody can take it.
func saturated(candidates []*replicaState) bool {
	for _, rs := range candidates {
		report, ok := rs.loadReport()
		if !ok || report.QueueCap <= 0 || report.QueueDepth < report.QueueCap {
			return false
		}
	}
	return len(candidates) > 0
}

// placeSpread picks a submission target, refusing admission when the whole
// candidate set is saturated.
func (g *Gateway) placeSpread(candidates []*replicaState) (*replicaState, error) {
	if saturated(candidates) {
		metGwAdmissionRejects.Inc()
		return nil, core.ErrUnavailable(time.Second, "all replicas saturated: every candidate queue is full")
	}
	return g.spreadReplica(candidates), nil
}

// routeSubmit places one job submission.  For deterministic services it
// decodes the body, computes the memo key of the submission and consults the
// memo index: an entry pointing at a still-healthy candidate wins, because
// that replica's memo cache (or its in-flight execution) can answer without
// recomputing.  Otherwise the submission falls through to load-aware
// placement, which may refuse admission (non-nil err) when all candidates
// are saturated.  The returned key is non-empty when the placement should be
// claimed in the index after the replica accepts it.
func (g *Gateway) routeSubmit(service string, raw []byte) (rs *replicaState, key string, err error) {
	candidates := g.serviceReplicas(service)
	if len(candidates) == 0 {
		return nil, "", nil
	}
	if desc, _ := candidates[0].describe(service); desc.Deterministic {
		key = submitKey(desc, raw)
	}
	if key != "" {
		if name, ok := g.memo.lookup(key); ok {
			for _, c := range candidates {
				if c.name == name {
					metGwIndexHits.Inc()
					return c, key, nil
				}
			}
		}
	}
	rs, err = g.placeSpread(candidates)
	if err != nil {
		return nil, key, err
	}
	return rs, key, nil
}

// submitKey is the memo key of a deterministic submission, or "" when the
// body does not parse as a value map: such a body still forwards — the
// replica owns input validation and its 400 passes through unchanged.  A
// nil FileDigester hashes file references by literal string.  That is
// weaker than the container's content digest (two names for the same bytes
// miss), but routing only needs gateway-local determinism: a miss degrades
// to placement, never to a wrong answer — the replica's own memo gate
// re-derives the real key.
func submitKey(desc core.ServiceDescription, raw []byte) string {
	var inputs core.Values
	if json.Unmarshal(raw, &inputs) != nil {
		return ""
	}
	key, err := core.CanonicalHash(desc.Name, desc.Version, inputs, nil)
	if err != nil {
		return ""
	}
	return key
}
