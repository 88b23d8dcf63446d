package expt

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// quick is the scale every engine test runs at: the whole -quick suite takes
// a couple of seconds, so tests need no smaller one.
var quick = Scale{Quick: true}

// TestRunnerDeterministicAcrossWorkers is the engine's core contract: the
// same seed yields a byte-identical table whether cells run serially or fan
// out across 8 workers.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	for _, e := range Experiments() {
		if e.ID == "E10" {
			// E10 performs genuinely simultaneous joins; its printed
			// values (sizes and violation counts, all zero when Theorem 6
			// holds) are stable, but the mesh it leaves behind is not, so
			// it is exercised by TestRunnerRace instead.
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			def := e.Make(quick)
			serial := def.Run(42, 1).String()
			parallel := def.Run(42, 8).String()
			if serial != parallel {
				t.Errorf("%s: workers=1 and workers=8 disagree\n--- serial ---\n%s--- parallel ---\n%s",
					e.ID, serial, parallel)
			}
		})
	}
}

// TestRunnerRace drives concurrent cells over the shared registry so the
// -race build can catch cross-cell sharing. It includes the experiments
// excluded from the determinism check.
func TestRunnerRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race sweep is slow")
	}
	r := Runner{Seed: 7, Scale: Scale{Quick: true, Workers: 8}}
	results, err := r.RunMatching("E0|E6|E7|E9|E10|E-scale|A3")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d results", len(results))
	}
	for _, res := range results {
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s produced no rows", res.ID)
		}
	}
}

// TestCellSeedsDistinct asserts the satellite fix: no two (experiment, cell)
// pairs may share an RNG stream — the failure mode of the old seed+7/seed*3
// arithmetic.
func TestCellSeedsDistinct(t *testing.T) {
	for _, base := range []int64{0, 1, 3, 7, 21} { // seeds where old offsets aliased
		seen := map[int64]string{}
		for _, e := range Experiments() {
			def := e.Make(quick)
			for i := range def.Cells {
				s := def.cellSeed(base, i)
				where := e.ID + "/" + def.Cells[i].Label
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed %d: cell stream collision between %s and %s", base, where, prev)
				}
				seen[s] = where
			}
		}
	}
}

// TestStreamOrderAndPooling checks that the shared pool emits results in
// presentation order with content identical to per-experiment runs.
func TestStreamOrderAndPooling(t *testing.T) {
	r := Runner{Seed: 11, Scale: Scale{Quick: true, Workers: 8}}
	var streamed []Result
	err := r.Stream("E0|E2|E6|A3", func(res Result) error {
		streamed = append(streamed, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"E0", "E2", "E6", "A3"}
	if len(streamed) != len(wantIDs) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(wantIDs))
	}
	for i, res := range streamed {
		if res.ID != wantIDs[i] {
			t.Fatalf("result %d is %s, want %s (presentation order)", i, res.ID, wantIDs[i])
		}
	}
	// Pooled output must equal an isolated serial run of the same def.
	for _, res := range streamed {
		for _, e := range Experiments() {
			if e.ID != res.ID {
				continue
			}
			if want := e.Make(quick).Run(11, 1).String(); res.Table.String() != want {
				t.Errorf("%s: pooled table diverged from serial run\n%s\nvs\n%s", res.ID, res.Table, want)
			}
		}
	}
}

// TestRunPanicAttribution pins the unified failure path: a panicking cell
// surfaces the same experiment/cell-labelled message at any worker count.
func TestRunPanicAttribution(t *testing.T) {
	def := Def{
		Name:  "Boom",
		Table: Table{Title: "boom", Header: []string{"x"}},
		Cells: []Cell{
			{Label: "ok", Run: func(seed int64, t *Table) { t.AddRow(1) }},
			{Label: "bad", Run: func(int64, *Table) { panic("kapow") }},
		},
	}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "Boom") || !strings.Contains(msg, "bad") || !strings.Contains(msg, "kapow") {
					t.Errorf("workers=%d: panic lacks attribution: %q", workers, msg)
				}
			}()
			def.Run(3, workers)
		}()
	}
}

// TestRunAndEmitRejectsFormatUpFront pins the cheap-failure path: a typo'd
// format errors out immediately — even with an invalid pattern, the format
// check comes first, proving no experiment selection (let alone execution)
// happened before it.
func TestRunAndEmitRejectsFormatUpFront(t *testing.T) {
	r := Runner{Seed: 1, Scale: Scale{Quick: true, Workers: 1}}
	err := r.RunAndEmit(&strings.Builder{}, "(", "jsn")
	if err == nil || !strings.Contains(err.Error(), "jsn") {
		t.Fatalf("want unknown-format error before pattern handling, got %v", err)
	}
	// Valid format + good pattern still works end to end.
	var b strings.Builder
	if err := r.RunAndEmit(&b, "E0", FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"id\": \"E0\"") {
		t.Errorf("json output missing result: %s", b.String())
	}
}

func TestMatch(t *testing.T) {
	all, err := Match("")
	if err != nil || len(all) != len(registry) {
		t.Fatalf("empty pattern: %d experiments, err=%v", len(all), err)
	}
	one, err := Match("e5")
	if err != nil || len(one) != 1 || one[0].ID != "E5" {
		t.Fatalf("case-insensitive id match failed: %v err=%v", one, err)
	}
	byName, err := Match("Table1.*")
	if err != nil || len(byName) != 4 {
		t.Fatalf("name regexp matched %d, want 4 (err=%v)", len(byName), err)
	}
	// E1 must not swallow E10..E16: the pattern is anchored.
	e1, err := Match("E1")
	if err != nil || len(e1) != 1 {
		t.Fatalf("anchored match failed: %v err=%v", e1, err)
	}
	if _, err := Match("NoSuchExperiment"); err == nil {
		t.Fatal("expected error for unmatched pattern")
	}
	if _, err := Match("("); err == nil {
		t.Fatal("expected error for invalid regexp")
	}
}

func TestRegistryNamesUniqueAndStable(t *testing.T) {
	ids := map[string]bool{}
	names := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] || names[e.Name] {
			t.Fatalf("duplicate registry entry %s/%s", e.ID, e.Name)
		}
		ids[e.ID] = true
		names[e.Name] = true
		def := e.Make(quick)
		if def.Name != e.Name {
			t.Errorf("%s: def name %q != registry name %q (seed streams would drift)", e.ID, def.Name, e.Name)
		}
		if len(def.Cells) == 0 {
			t.Errorf("%s has no cells", e.ID)
		}
		if len(def.Table.Rows) != 0 {
			t.Errorf("%s skeleton already has rows", e.ID)
		}
		if !strings.Contains(def.Table.Title, "") && def.Table.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
}

// TestFlagsResolveScale pins the one flag table both CLIs bind: a size flag
// replaces its row's literal pair at either scale and leaves the others
// alone, the name selections split on commas, every name a registry row asks
// for is a flag that exists, and a typo'd scenario or protocol is refused
// before anything runs.
func TestFlagsResolveScale(t *testing.T) {
	parse := func(args ...string) (Scale, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Scale(3)
	}
	s, err := parse("-quick", "-nines-n", "48", "-chaos-scenario", "blackout,lossy-links", "-protocol", "tapestry,chord")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Quick || s.Workers != 3 {
		t.Errorf("quick=%v workers=%d", s.Quick, s.Workers)
	}
	if got := s.size("nines-n", 256, 96); got != 48 {
		t.Errorf("overridden nines-n = %d, want 48", got)
	}
	if got := s.size("chaos-n", 128, 64); got != 64 {
		t.Errorf("untouched chaos-n = %d, want the quick literal 64", got)
	}
	if !reflect.DeepEqual(s.Scenarios, []string{"blackout", "lossy-links"}) ||
		!reflect.DeepEqual(s.Protocols, []string{"tapestry", "chord"}) {
		t.Errorf("selections: %v %v", s.Scenarios, s.Protocols)
	}
	for _, e := range Experiments() {
		e.Make(s) // panics on a size name no flag has
	}

	full, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if got := full.size("nines-n", 256, 96); got != 256 || full.Scenarios != nil || full.Protocols != nil {
		t.Errorf("no flags: nines-n=%d scenarios=%v protocols=%v", got, full.Scenarios, full.Protocols)
	}
	if _, err := parse("-chaos-scenario", "no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := parse("-protocol", "no-such-protocol"); err == nil {
		t.Error("unknown protocol accepted")
	}
}
