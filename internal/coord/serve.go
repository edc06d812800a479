package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"bulkpim/internal/system"
)

// ServeOptions configures the worker half of the protocol.
type ServeOptions struct {
	// ExecuteSpec plans for the job's spec and runs the job planned
	// under fingerprint. An error becomes a job-level failure on the
	// wire (flagged as skew when it wraps ErrPlanSkew); the worker
	// keeps serving.
	ExecuteSpec func(spec JobSpec, key, fingerprint string) (system.Result, error)
	// FailAfter > 0 is a crash-injection test hook: the worker serves
	// exactly FailAfter jobs, then dies via Fail when the next job
	// arrives — without replying, so that job is genuinely lost in
	// flight and the coordinator must retry it elsewhere.
	FailAfter int
	// Fail is what "dying" means; nil exits the process with status 3.
	Fail func()
	// Log receives progress lines; nil discards them. Serve never
	// writes anything but protocol frames to out, so logs are safe to
	// point at stderr.
	Log func(format string, args ...any)
}

func (o ServeOptions) log(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Serve runs the worker protocol loop: hello, then execute jobs as
// they arrive until a bye frame or stdin EOF. A malformed frame is an
// error (the coordinator and worker have desynchronized; continuing
// would execute wrong work); a failing job is not (its error travels
// back in the result frame).
func Serve(in io.Reader, out io.Writer, o ServeOptions) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(helloMsg{Type: "hello"}); err != nil {
		return fmt.Errorf("coord worker: hello: %w", err)
	}
	dec := json.NewDecoder(in)
	served := 0
	for {
		req, err := readRequest(dec)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("coord worker: read: %w", err)
		}
		if req.Type == "bye" {
			o.log("worker: served %d jobs, bye", served)
			return nil
		}
		if o.FailAfter > 0 && served >= o.FailAfter {
			o.log("worker: -fail-after %d reached, crashing", o.FailAfter)
			if o.Fail != nil {
				o.Fail()
				// Reachable only with an injected Fail (tests): report
				// the abandoned job instead of silently returning.
				return fmt.Errorf("coord worker: crashed by -fail-after %d", o.FailAfter)
			}
			os.Exit(3)
		}
		resp := response{Type: "result", Key: req.Key, Fingerprint: req.Fingerprint}
		var v system.Result
		if req.Spec == nil {
			err = errors.New("job frame without a spec")
		} else {
			v, err = o.ExecuteSpec(*req.Spec, req.Key, req.Fingerprint)
		}
		if err != nil {
			resp.Error, resp.Skew = err.Error(), errors.Is(err, ErrPlanSkew)
			o.log("worker: %s failed: %v", req.Key, err)
		} else {
			resp.Result = v
		}
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("coord worker: write result %s: %w", req.Key, err)
		}
		served++
	}
}
