package schedd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/tree"
)

// Request is the wire schema of one scheduling request, checked field by
// field by validate. A JSON POST carries the whole struct; a text/plain
// POST carries the treegen text format as the body and the scalar fields
// as query parameters of the same names.
type Request struct {
	// Tree is the instance in the tree JSON form
	// ({"parents":[...],"weights":[...]}); required on the JSON path.
	Tree json.RawMessage `json:"tree"`
	// M is the absolute memory bound; ignored when Mid is set. Exactly
	// one of M>0 or Mid must be given.
	M int64 `json:"m"`
	// Mid asks for the paper's mid bound, (LB+Peak-1)/2, computed from
	// the instance itself.
	Mid bool `json:"mid"`
	// Algorithm selects the scheduler; empty means the server default
	// (RecExpand).
	Algorithm string `json:"algorithm"`
	// CacheBudget optionally lowers this request's lease below the
	// estimate, in ParseByteSize form ("256MiB"); empty takes the
	// server's estimate. It can only shrink the lease, never grow it
	// past the estimate-capped admission cost.
	CacheBudget string `json:"cache_budget"`
	// WaitMS bounds how long admission may queue behind the budget
	// broker before giving up with 429; 0 means fail fast (TryAcquire).
	WaitMS int64 `json:"wait_ms"`
	// TimeoutMS bounds the whole run+stream after admission; 0 takes the
	// server default.
	TimeoutMS int64 `json:"timeout_ms"`
	// Name is an optional label echoed in logs and checkpoints.
	Name string `json:"name"`
	// IdempotencyKey, when non-empty, binds the request to a durable
	// journal entry: re-POSTs with the same key resume the previous
	// attempt's checkpoint instead of recomputing, and keys are
	// single-flight (a concurrent duplicate waits, it does not double the
	// work). Reusing a key for a different instance/bound/algorithm is a
	// 409.
	IdempotencyKey string `json:"idempotency_key"`
	// ResumeFrom is the count of schedule ids the client already holds
	// verified (the RepairSchedule-trusted prefix): the stream starts
	// after them, so prefix + response reassemble the uninterrupted
	// stream byte-for-byte. Only meaningful with IdempotencyKey.
	ResumeFrom int64 `json:"resume_from"`
}

// estimate constants of the admission cost model: a request's resident
// cost is floored at minLeaseBytes and grows linearly with the node count.
// bytesPerNode covers the decoded tree (parent + weight + children arrays,
// ~28 B/node) plus the engine's working state under a bounded cache —
// postorder scratch and the resident profile segments the cache keeps hot
// even at its smallest useful budget.
const (
	minLeaseBytes = 1 << 20 // 1 MiB floor: tiny trees still cost a lease
	bytesPerNode  = 224
)

// EstimateCost is the admission cost model: the resident bytes a request
// over an n-node tree is charged against the global budget. It
// deliberately over-approximates (the profile cache evicts under its
// budget, so the true footprint can be driven lower) — admission must be
// computable from the node count alone, before any expensive analysis of
// the instance runs.
func EstimateCost(n int) int64 {
	c := int64(n) * bytesPerNode
	if c < minLeaseBytes {
		c = minLeaseBytes
	}
	return c
}

// ParseRequest ingests one POST: application/json bodies carry the full
// Request struct; text/plain bodies carry the treegen text format with the
// scalar fields as query parameters. The body is rejected past limit
// bytes. It returns the validated request and the decoded, structurally
// verified tree.
func ParseRequest(r *http.Request, limit int64) (*Request, *tree.Tree, error) {
	body := http.MaxBytesReader(nil, r.Body, limit)
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)

	var req Request
	var t *tree.Tree
	switch ct {
	case "", "application/json":
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return nil, nil, fmt.Errorf("schedd: decoding request json: %w", err)
		}
		if err := req.validate(); err != nil {
			return nil, nil, err
		}
		var tr tree.Tree
		if err := json.Unmarshal(req.Tree, &tr); err != nil {
			return nil, nil, fmt.Errorf("schedd: decoding tree: %w", err)
		}
		t = &tr
	case "text/plain":
		if err := queryRequest(r, &req); err != nil {
			return nil, nil, err
		}
		// The text path has no tree field to satisfy the required check;
		// stub it before validating, the body is the tree.
		req.Tree = json.RawMessage("{}")
		if err := req.validate(); err != nil {
			return nil, nil, err
		}
		tr, err := tree.ReadText(body)
		if err != nil {
			return nil, nil, fmt.Errorf("schedd: decoding tree text: %w", err)
		}
		t = tr
	default:
		return nil, nil, fmt.Errorf("schedd: unsupported content type %q (want application/json or text/plain)", ct)
	}

	if req.M < 0 || (req.M == 0) == (!req.Mid) {
		return nil, nil, fmt.Errorf("schedd: exactly one of m>0 or mid must be given")
	}
	if req.ResumeFrom > 0 && req.IdempotencyKey == "" {
		return nil, nil, fmt.Errorf("schedd: resume_from requires idempotency_key")
	}
	return &req, t, nil
}

// queryRequest fills the scalar request fields from URL query parameters
// (the text/plain ingest path, mirroring the JSON field names).
func queryRequest(r *http.Request, req *Request) error {
	q := r.URL.Query()
	var err error
	geti := func(key string) int64 {
		if err != nil || !q.Has(key) {
			return 0
		}
		var v int64
		if v, err = strconv.ParseInt(q.Get(key), 10, 64); err != nil {
			err = fmt.Errorf("schedd: query parameter %q: %w", key, err)
		}
		return v
	}
	req.M = geti("m")
	req.Mid = q.Get("mid") == "1" || q.Get("mid") == "true"
	req.Algorithm = q.Get("algorithm")
	req.CacheBudget = q.Get("cache_budget")
	req.WaitMS = geti("wait_ms")
	req.TimeoutMS = geti("timeout_ms")
	req.Name = q.Get("name")
	req.IdempotencyKey = q.Get("idempotency_key")
	req.ResumeFrom = geti("resume_from")
	return err
}

// algorithm resolves the request's algorithm with the server default.
func (req *Request) algorithm() core.Algorithm {
	if req.Algorithm == "" {
		return core.RecExpand
	}
	return core.Algorithm(req.Algorithm)
}

// leaseCost resolves the request's admission cost: the node-count estimate,
// optionally lowered (never raised) by an explicit cache_budget.
func (req *Request) leaseCost(n int) (int64, error) {
	cost := EstimateCost(n)
	if req.CacheBudget == "" {
		return cost, nil
	}
	asked, err := core.ParseByteSize(req.CacheBudget)
	if err != nil {
		return 0, fmt.Errorf("schedd: cache_budget: %w", err)
	}
	if asked < cost {
		if asked < minLeaseBytes {
			asked = minLeaseBytes
		}
		cost = asked
	}
	return cost, nil
}

// drainBody consumes and closes an ingested request body so the connection
// can be reused; bounded by the server's request limit upstream.
func drainBody(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20))
	_ = r.Close()
}
