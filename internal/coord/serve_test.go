package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"bulkpim/internal/system"
)

// serveConn drives Serve over in-memory pipes, mimicking the
// coordinator side of the protocol.
type serveConn struct {
	t    *testing.T
	enc  *json.Encoder
	dec  *json.Decoder
	done chan error
}

func startServe(t *testing.T, o ServeOptions) *serveConn {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	c := &serveConn{t: t, enc: json.NewEncoder(reqW), dec: json.NewDecoder(respR), done: make(chan error, 1)}
	go func() {
		c.done <- Serve(reqR, respW, o)
		respW.Close()
	}()
	var h helloMsg
	if err := c.dec.Decode(&h); err != nil || h.Type != "hello" {
		t.Fatalf("no hello: %+v, %v", h, err)
	}
	return c
}

func (c *serveConn) job(key, fp string) response {
	c.t.Helper()
	if err := c.enc.Encode(request{Type: "job", Key: key, Fingerprint: fp,
		Spec: &JobSpec{Exp: "fig3", Scale: "smoke"}}); err != nil {
		c.t.Fatal(err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// TestServeProtocol: hello handshake, job execution with the frame's
// spec, job-level errors in result frames (a spec-less frame among
// them, plan skew flagged), and a clean bye.
func TestServeProtocol(t *testing.T) {
	c := startServe(t, ServeOptions{
		ExecuteSpec: func(spec JobSpec, key, fp string) (system.Result, error) {
			if spec.Exp != "fig3" || spec.Scale != "smoke" {
				return system.Result{}, fmt.Errorf("spec %+v did not ride the frame", spec)
			}
			if fp == "bad" {
				return system.Result{}, errors.New("sim exploded")
			}
			if fp == "skewed" {
				return system.Result{}, fmt.Errorf("unknown fingerprint %s: %w", fp, ErrPlanSkew)
			}
			return system.Result{Cycles: 99}, nil
		},
	})
	resp := c.job("k1", "f1")
	if resp.Type != "result" || resp.Key != "k1" || resp.Fingerprint != "f1" ||
		resp.Error != "" || resp.Result.Cycles != 99 {
		t.Fatalf("result frame %+v", resp)
	}
	resp = c.job("k2", "bad")
	if resp.Error != "sim exploded" || resp.Skew {
		t.Fatalf("job error not in result frame: %+v", resp)
	}
	if resp = c.job("k2", "skewed"); !resp.Skew || !strings.Contains(resp.Error, "unknown fingerprint") {
		t.Fatalf("plan skew not flagged in result frame: %+v", resp)
	}
	// A job error must not kill the worker.
	if resp = c.job("k3", "f3"); resp.Result.Cycles != 99 {
		t.Fatalf("worker dead after job error: %+v", resp)
	}
	if err := c.enc.Encode(request{Type: "job", Key: "k4", Fingerprint: "f4"}); err != nil {
		t.Fatal(err)
	}
	if err := c.dec.Decode(&resp); err != nil || !strings.Contains(resp.Error, "without a spec") {
		t.Fatalf("spec-less job frame: %+v, %v", resp, err)
	}
	if err := c.enc.Encode(request{Type: "bye"}); err != nil {
		t.Fatal(err)
	}
	if err := <-c.done; err != nil {
		t.Fatalf("bye: %v", err)
	}
}

// TestServeFailAfter: the crash-injection hook serves exactly N jobs,
// then dies on the next request without replying.
func TestServeFailAfter(t *testing.T) {
	failed := make(chan struct{})
	c := startServe(t, ServeOptions{
		ExecuteSpec: func(spec JobSpec, key, fp string) (system.Result, error) {
			return system.Result{Cycles: 1}, nil
		},
		FailAfter: 2,
		Fail:      func() { close(failed) },
	})
	c.job("k1", "f1")
	c.job("k2", "f2")
	if err := c.enc.Encode(request{Type: "job", Key: "k3", Fingerprint: "f3"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("Fail hook not invoked on the job after -fail-after")
	}
	if err := <-c.done; err == nil || !strings.Contains(err.Error(), "fail-after") {
		t.Fatalf("crashed Serve error = %v", err)
	}
	// The in-flight job got no reply: the response stream ends.
	var resp response
	if err := c.dec.Decode(&resp); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after crash, got %+v, %v", resp, err)
	}
}

// TestServeEOF: stdin EOF (coordinator gone) is a clean exit.
func TestServeEOF(t *testing.T) {
	var out bytes.Buffer
	if err := Serve(strings.NewReader(""), &out, ServeOptions{
		ExecuteSpec: func(JobSpec, string, string) (system.Result, error) { return system.Result{}, nil },
	}); err != nil {
		t.Fatalf("EOF must be clean: %v", err)
	}
}

// TestServeUnknownType: a desynchronized stream is fatal for the
// worker (continuing could execute wrong work).
func TestServeUnknownType(t *testing.T) {
	var out bytes.Buffer
	err := Serve(strings.NewReader(`{"type":"frobnicate"}`+"\n"), &out, ServeOptions{
		ExecuteSpec: func(JobSpec, string, string) (system.Result, error) { return system.Result{}, nil },
	})
	if err == nil || !strings.Contains(err.Error(), "unknown request type") {
		t.Fatalf("err = %v", err)
	}
}
