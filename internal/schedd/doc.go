// Package schedd is the multi-tenant scheduling service of the
// reproduction: a long-running HTTP server in front of the expansion
// engine, where clients POST tree instances (JSON or the treegen text
// format) and stream back schedules — the tree.WriteSchedule segment
// protocol, byte-identical to what `sched -stream-sched` writes — plus a
// peak-memory report in HTTP trailers.
//
// The robustness core is the budget lease broker (Broker): one global
// MaxResidentBytes budget is partitioned across concurrent requests as
// per-request leases. Each admitted request runs its engine under a
// profile-cache budget equal to its lease, so the sum of resident cache
// footprints stays inside the global budget no matter how many tenants
// are active. Requests that cannot acquire a
// lease within their declared wait are rejected with 429 + Retry-After
// (load shedding); requests whose estimated cost exceeds the whole budget
// are rejected at validation time with the estimate (413); requests with
// malformed bodies are rejected by Request.validate with field-keyed
// errors naming every violated rule (400).
//
// Failure containment composes the PR 6/7 machinery: every request runs
// under its own context (client disconnect, per-request timeout, and the
// server's drain deadline all cancel it at engine quiescent points), a
// panic in a handler or engine is contained to a 500/truncated stream on
// that request only — never process death — and graceful drain stops
// admission, lets in-flight requests finish for a grace period, then
// cancels them so checkpoint-armed runs flush a resumable checkpoint
// (expand's flush-on-cancel drain hook) before the process exits 0.
//
// Observability: /healthz (process liveness), /readyz (admission state —
// 503 while draining), /statz (broker and serving counters as JSON), and
// one structured log line per request with queue-wait/run/stream timings.
package schedd
