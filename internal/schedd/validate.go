package schedd

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
)

// FieldError is one violated rule on one request field.
type FieldError struct {
	// Field is the field's JSON name.
	Field string
	// Rule is the violated rule, e.g. "max=600000" or "required".
	Rule string
	// Detail says what the value looked like instead.
	Detail string
}

// Error formats the violation with its field and rule.
func (e *FieldError) Error() string {
	return fmt.Sprintf("field %q violates %q: %s", e.Field, e.Rule, e.Detail)
}

// ValidationError aggregates every violated rule of one request, so a
// client fixing a request sees all problems at once.
type ValidationError struct {
	// Fields lists the violations in field order.
	Fields []*FieldError
}

// Error joins the per-field violations.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "schedd: invalid request: " + strings.Join(msgs, "; ")
}

// algorithms is the request's algorithm vocabulary, in the order a
// rejection lists it.
const algorithms = "OptMinMem PostOrderMinIO PostOrderMinMem NaturalPostOrder RecExpand FullRecExpand"

// validate checks every field of the request against its bounds and
// returns a *ValidationError listing all violations, or nil. An empty
// algorithm or cache_budget means the server default and is valid.
func (req *Request) validate() error {
	var v ValidationError
	if len(req.Tree) == 0 {
		v.add("tree", "required", "missing or empty")
	}
	v.atLeast("m", req.M, 0)
	if req.Algorithm != "" && !slices.Contains(strings.Fields(algorithms), req.Algorithm) {
		v.add("algorithm", "oneof="+algorithms, fmt.Sprintf("%q is not one of [%s]", req.Algorithm, algorithms))
	}
	if req.CacheBudget != "" {
		if _, err := core.ParseByteSize(req.CacheBudget); err != nil {
			v.add("cache_budget", "bytesize", err.Error())
		}
	}
	v.maxLen("cache_budget", req.CacheBudget, 32)
	v.atLeast("wait_ms", req.WaitMS, 0)
	v.atMost("wait_ms", req.WaitMS, 600000)
	v.atLeast("timeout_ms", req.TimeoutMS, 0)
	v.atMost("timeout_ms", req.TimeoutMS, 86400000)
	v.maxLen("name", req.Name, 128)
	v.maxLen("idempotency_key", req.IdempotencyKey, 128)
	v.atLeast("resume_from", req.ResumeFrom, 0)
	if len(v.Fields) > 0 {
		return &v
	}
	return nil
}

func (v *ValidationError) add(field, rule, detail string) {
	v.Fields = append(v.Fields, &FieldError{Field: field, Rule: rule, Detail: detail})
}

func (v *ValidationError) atLeast(field string, n, lo int64) {
	if n < lo {
		v.add(field, fmt.Sprintf("min=%d", lo), fmt.Sprintf("%d is below the minimum %d", n, lo))
	}
}

func (v *ValidationError) atMost(field string, n, hi int64) {
	if n > hi {
		v.add(field, fmt.Sprintf("max=%d", hi), fmt.Sprintf("%d is above the maximum %d", n, hi))
	}
}

func (v *ValidationError) maxLen(field, s string, n int) {
	if len(s) > n {
		v.add(field, fmt.Sprintf("maxlen=%d", n), fmt.Sprintf("length %d exceeds %d", len(s), n))
	}
}
