package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"

	"bulkpim/internal/system"
)

// ProcWorker is a Worker backed by a subprocess speaking the protocol
// on its stdin/stdout — normally `pimbench work`, possibly wrapped in
// a launcher like ssh. Its stderr is the worker's log channel and
// never carries protocol frames.
type ProcWorker struct {
	id     int
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	dec    *json.Decoder
	broken bool
}

// StartProc launches argv as worker id, wires the protocol pipes, and
// blocks until the worker's hello (a worker that dies at startup
// surfaces as a decode error here, not a hang). stderr receives the
// worker's log; nil discards it. Launch errors do not name the worker:
// Pool.AddWorker prefixes them.
func StartProc(id int, argv []string, stderr io.Writer) (*ProcWorker, error) {
	if len(argv) == 0 {
		return nil, errors.New("empty worker argv")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	if stderr == nil {
		stderr = io.Discard
	}
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &ProcWorker{id: id, cmd: cmd, stdin: stdin,
		enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}
	var h helloMsg
	if err := w.dec.Decode(&h); err != nil || h.Type != "hello" {
		w.broken = true
		w.Close()
		return nil, fmt.Errorf("no hello (%v)", err)
	}
	return w, nil
}

// Run sends one job and blocks for its result. A result frame carrying
// an error becomes a *JobError (the worker stays usable); a transport
// failure or protocol violation marks the worker broken and is
// returned as a worker-lost error.
func (w *ProcWorker) Run(t Task) (system.Result, error) {
	if err := w.enc.Encode(request{Type: "job", Key: t.Key, Fingerprint: t.Fingerprint, Spec: &t.Spec}); err != nil {
		w.broken = true
		return system.Result{}, fmt.Errorf("worker %d: send: %w", w.id, err)
	}
	resp, err := readResponse(w.dec)
	if err != nil {
		w.broken = true
		return system.Result{}, fmt.Errorf("worker %d: recv: %w", w.id, err)
	}
	if resp.Fingerprint != t.Fingerprint {
		w.broken = true
		return system.Result{}, fmt.Errorf("worker %d: protocol violation: result frame for fingerprint %q, want %q",
			w.id, resp.Fingerprint, t.Fingerprint)
	}
	if resp.Error != "" {
		return system.Result{}, &JobError{Msg: resp.Error, Skew: resp.Skew}
	}
	return resp.Result, nil
}

// Close dismisses the worker (bye + stdin close) and reaps the
// process. A broken worker is killed instead; its exit status was
// already reported by the failing Run, so Close returns nil for it.
func (w *ProcWorker) Close() error {
	if !w.broken {
		// Best effort: a worker that already exited has a closed pipe.
		_ = w.enc.Encode(request{Type: "bye"})
	}
	w.stdin.Close()
	if w.broken && w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
	}
	err := w.cmd.Wait()
	if w.broken {
		return nil
	}
	return err
}
