// Package coord is the fault-tolerant executor behind `pimbench coord`
// and `pimbench serve`: a Pool dispatches distinct simulation jobs —
// dynamic work-stealing, one job at a time per worker — to a fleet of
// worker subprocesses speaking a line-delimited JSON protocol over
// stdin/stdout, retries jobs from crashed or erroring workers on the
// survivors (the failed worker excluded per job, under a per-task
// retry budget), and delivers every finished result to the caller as
// it lands.
//
// The wire protocol (one JSON value per line, worker side implemented
// by Serve):
//
//	worker -> coordinator  {"type":"hello"}
//	coordinator -> worker  {"type":"job","key":K,"fp":F,"spec":{"exp":E,"scale":S,...}}
//	worker -> coordinator  {"type":"result","key":K,"fp":F,"result":{...},"error":"","skew":false}
//	coordinator -> worker  {"type":"bye"}        (or stdin EOF)
//
// The hello is a liveness handshake: a worker that dies at startup
// surfaces as a launch error rather than a hang. Workers start with no
// plan; every job frame carries the spec its fingerprint was planned
// under, and the worker plans for it on demand (planning is
// deterministic, so both sides derive the same fingerprints) and
// resolves the fingerprint to the job it planned; a fingerprint its
// plan lacks is plan skew (different builds), flagged in the result
// frame so the coordinator can stop sending that fleet work. Results
// travel back as the same system.Result JSON the result cache persists.
package coord

import (
	"encoding/json"
	"fmt"

	"bulkpim/internal/system"
)

// JobSpec is a job's full identity: the parameters a worker needs to
// re-derive the plan a fingerprint belongs to. Overrides carries the
// request's raw config-override JSON (empty for none) so the worker
// reproduces the exact mutated Config.
type JobSpec struct {
	Exp       string `json:"exp"`
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed,omitempty"`
	Overrides string `json:"overrides,omitempty"`
}

// helloMsg is the worker's startup handshake.
type helloMsg struct {
	Type string `json:"type"` // "hello"
}

// request is a coordinator-to-worker message.
type request struct {
	Type        string   `json:"type"` // "job" or "bye"
	Key         string   `json:"key,omitempty"`
	Fingerprint string   `json:"fp,omitempty"`
	Spec        *JobSpec `json:"spec,omitempty"`
}

// readRequest decodes and validates the next coordinator-to-worker
// frame. io.EOF passes through untouched (it is the coordinator
// hanging up, not a protocol error); any other decode failure or an
// unknown frame type is an error.
func readRequest(dec *json.Decoder) (request, error) {
	var req request
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	switch req.Type {
	case "job", "bye":
		return req, nil
	default:
		return req, fmt.Errorf("unknown request type %q", req.Type)
	}
}

// readResponse decodes and validates the next worker-to-coordinator
// frame; anything but a well-formed result frame is an error.
func readResponse(dec *json.Decoder) (response, error) {
	var resp response
	if err := dec.Decode(&resp); err != nil {
		return resp, err
	}
	if resp.Type != "result" {
		return resp, fmt.Errorf("unknown response type %q", resp.Type)
	}
	return resp, nil
}

// response is a worker-to-coordinator job outcome. Error carries a
// job-level failure; the worker itself stays available.
type response struct {
	Type        string        `json:"type"` // "result"
	Key         string        `json:"key"`
	Fingerprint string        `json:"fp"`
	Result      system.Result `json:"result"`
	Error       string        `json:"error,omitempty"`
	// Skew marks Error as plan skew (ErrPlanSkew).
	Skew bool `json:"skew,omitempty"`
}
