package main

import (
	"flag"
	"io"
	"testing"
)

// TestSharedFlagParity pins the consolidation contract of flags.go:
// every flag name appearing in several subcommands is declared by one
// shared builder, so its default cannot drift between subcommands —
// the failure mode that would let run's -v and coord's -v (or the
// -exp/-scale/-seed trio the coordinator round-trips to its workers)
// silently diverge.
func TestSharedFlagParity(t *testing.T) {
	sets := map[string]*flag.FlagSet{}
	collect := func(name string, fs *flag.FlagSet) { sets[name] = fs }
	{
		fs, _ := newRunFlags(io.Discard)
		collect("run", fs)
	}
	{
		fs, _ := newPlanFlags(io.Discard)
		collect("plan", fs)
	}
	{
		fs, _ := newCoordFlags(io.Discard)
		collect("coord", fs)
	}
	{
		fs, _ := newServeFlags(io.Discard)
		collect("serve", fs)
	}
	{
		fs, _ := newWorkFlags(io.Discard)
		collect("work", fs)
	}

	type decl struct{ cmd, def string }
	byName := map[string][]decl{}
	for cmd, fs := range sets {
		fs.VisitAll(func(f *flag.Flag) {
			byName[f.Name] = append(byName[f.Name], decl{cmd: cmd, def: f.DefValue})
		})
	}
	for name, decls := range byName {
		for _, d := range decls[1:] {
			if d.def != decls[0].def {
				t.Errorf("flag -%s default drifts: %s has %q, %s has %q",
					name, decls[0].cmd, decls[0].def, d.cmd, d.def)
			}
		}
	}

	has := func(cmd, name string) bool { return sets[cmd].Lookup(name) != nil }
	// -stream is retired: every report streams, and -v logs the
	// settle order.
	for cmd := range sets {
		if has(cmd, "stream") {
			t.Errorf("retired -stream still declared on %s", cmd)
		}
	}
	// -diff is plan-only: an incremental re-plan is a planning decision.
	for cmd, want := range map[string]bool{"plan": true, "run": false, "coord": false, "serve": false, "work": false} {
		if got := has(cmd, "diff"); got != want {
			t.Errorf("-diff on %s: got %v, want %v", cmd, got, want)
		}
	}
	// The experiment-selection trio rides every planning subcommand;
	// workers take it from each job frame's spec instead.
	for cmd, want := range map[string]bool{"run": true, "plan": true, "coord": true, "work": false} {
		for _, name := range []string{"exp", "scale", "seed"} {
			if got := has(cmd, name); got != want {
				t.Errorf("-%s on %s: got %v, want %v", name, cmd, got, want)
			}
		}
	}
}

// TestWorkFlagsParseCoordArgs: the work flag set must parse exactly
// the argv shape coord and serve fleets launch workers with (the
// crash-injection hook is the only flag they pass) — the cmd-side half
// of the bulkpim round-trip test TestServeWorkArgsRoundTrip — and
// reject the retired static-plan flags.
func TestWorkFlagsParseCoordArgs(t *testing.T) {
	fs, f := newWorkFlags(io.Discard)
	if err := fs.Parse([]string{"-fail-after", "2"}); err != nil {
		t.Fatal(err)
	}
	if *f.failAfter != 2 || fs.NArg() != 0 {
		t.Fatalf("round-trip skew: failAfter=%d operands=%v", *f.failAfter, fs.Args())
	}
	for _, retired := range []string{"-dynamic", "-exp=fig7"} {
		fs, _ := newWorkFlags(io.Discard)
		if err := fs.Parse([]string{retired}); err == nil {
			t.Errorf("work accepted retired flag %s", retired)
		}
	}
}
