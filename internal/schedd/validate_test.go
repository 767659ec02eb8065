package schedd

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// validRequest sets every validated field to an accepted value.
func validRequest() Request {
	return Request{
		Tree:           json.RawMessage("{}"),
		M:              5,
		Algorithm:      "RecExpand",
		CacheBudget:    "1.5GiB",
		WaitMS:         100,
		TimeoutMS:      1000,
		Name:           "ok",
		IdempotencyKey: "k1",
		ResumeFrom:     3,
	}
}

// TestValidateTable drives one failing value per field rule and asserts
// the violation names the JSON field and rule.
func TestValidateTable(t *testing.T) {
	v := validRequest()
	if err := v.validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	v.Algorithm = ""
	v.CacheBudget = ""
	if err := v.validate(); err != nil {
		t.Fatalf("empty algorithm/cache_budget (server default) rejected: %v", err)
	}
	v = validRequest()
	v.WaitMS, v.TimeoutMS = 600000, 86400000
	if err := v.validate(); err != nil {
		t.Fatalf("bounds are inclusive, got: %v", err)
	}

	long := strings.Repeat("x", 129)
	cases := []struct {
		name   string
		mutate func(*Request)
		field  string
		rule   string
	}{
		{"missing required", func(r *Request) { r.Tree = nil }, "tree", "required"},
		{"below min", func(r *Request) { r.M = -1 }, "m", "min=0"},
		{"bad oneof", func(r *Request) { r.Algorithm = "Magic" }, "algorithm", "oneof=" + algorithms},
		{"bad bytesize", func(r *Request) { r.CacheBudget = "-1K" }, "cache_budget", "bytesize"},
		{"fractional no-unit bytesize", func(r *Request) { r.CacheBudget = "1.5" }, "cache_budget", "bytesize"},
		{"cache_budget too long", func(r *Request) { r.CacheBudget = strings.Repeat("0", 30) + "1KiB" }, "cache_budget", "maxlen=32"},
		{"wait_ms below min", func(r *Request) { r.WaitMS = -1 }, "wait_ms", "min=0"},
		{"above max", func(r *Request) { r.WaitMS = 600001 }, "wait_ms", "max=600000"},
		{"timeout_ms below min", func(r *Request) { r.TimeoutMS = -1 }, "timeout_ms", "min=0"},
		{"timeout_ms above max", func(r *Request) { r.TimeoutMS = 86400001 }, "timeout_ms", "max=86400000"},
		{"too long", func(r *Request) { r.Name = long }, "name", "maxlen=128"},
		{"idempotency_key too long", func(r *Request) { r.IdempotencyKey = long }, "idempotency_key", "maxlen=128"},
		{"resume_from below min", func(r *Request) { r.ResumeFrom = -1 }, "resume_from", "min=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validRequest()
			tc.mutate(&r)
			err := r.validate()
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("got %v, want ValidationError", err)
			}
			if len(verr.Fields) != 1 {
				t.Fatalf("got %d violations, want 1: %v", len(verr.Fields), verr)
			}
			if fe := verr.Fields[0]; fe.Field != tc.field || fe.Rule != tc.rule {
				t.Fatalf("violation = %+v, want field %q rule %q", fe, tc.field, tc.rule)
			}
			if !strings.Contains(err.Error(), `"`+tc.field+`"`) {
				t.Fatalf("message %q does not name field %q", err, tc.field)
			}
		})
	}
}

// TestValidateAggregates: every violated rule is reported at once, in field
// order, so a client fixes a bad request in one round trip — including two
// rules broken by the same field.
func TestValidateAggregates(t *testing.T) {
	r := Request{M: -1, Algorithm: "Magic", CacheBudget: strings.Repeat("x", 33)}
	err := r.validate()
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("got %v, want ValidationError", err)
	}
	var got []string
	for _, fe := range verr.Fields {
		got = append(got, fe.Field+" "+fe.Rule)
	}
	want := []string{"tree required", "m min=0", "algorithm oneof=" + algorithms, "cache_budget bytesize", "cache_budget maxlen=32"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("violations %q, want %q", got, want)
	}
}

// TestParseRequestIgnoresWorkers: the engine's warm-shard count is a
// daemon setting (-workers), so a "workers" field or query parameter is
// ignored like any unknown one, whatever its value.
func TestParseRequestIgnoresWorkers(t *testing.T) {
	body := `{"tree":{"parents":[-1,0],"weights":[1,1]},"m":2,"workers":999}`
	r := httptest.NewRequest("POST", "/schedule", strings.NewReader(body))
	if _, _, err := ParseRequest(r, 1<<20); err != nil {
		t.Fatalf("JSON request with workers: %v", err)
	}
	r = httptest.NewRequest("POST", "/schedule?m=2&workers=-5", strings.NewReader("2\n0 -1 1\n1 0 1\n"))
	r.Header.Set("Content-Type", "text/plain")
	if _, _, err := ParseRequest(r, 1<<20); err != nil {
		t.Fatalf("text request with workers: %v", err)
	}
}
