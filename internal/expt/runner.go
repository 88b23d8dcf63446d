package expt

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"tapestry/internal/stats"
)

// Def is a runnable experiment definition: a table skeleton (title, note,
// header) plus independent cells. Cells are the unit of parallelism — each
// one builds its own networks from its own derived seed, so any worker may
// run any cell and the merged table is identical to a serial run.
type Def struct {
	Name  string // seed-derivation key; matches the registry Name
	Table Table  // skeleton: Title, Note, Header (Rows must be empty)
	Cells []Cell
}

// Cell is one independent slice of an experiment (typically one parameter
// value, e.g. one network size of a sweep). Run receives a seed derived from
// (run seed, experiment name, cell index) and appends this cell's rows to t.
type Cell struct {
	Label string // human-readable, for error attribution
	Run   func(seed int64, t *Table)
}

// cellSeed derives the deterministic RNG stream for cell i of d under the
// given run seed. This replaces the old ad-hoc seed+7/seed*3 offsets. The
// derivation depends only on (runSeed, d.Name, i), so pooling cells of many
// experiments together cannot change any experiment's streams.
func (d Def) cellSeed(runSeed int64, i int) int64 {
	return stats.StreamSeed(runSeed, d.Name, i)
}

// runCell executes cell i with panic attribution: experiments report
// impossible states by panicking, and the wrapped message names the
// experiment and cell identically on the serial and parallel paths.
func (d Def) runCell(seed int64, i int) (rows [][]string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("expt: %s cell %q: %v", d.Name, d.Cells[i].Label, r)
		}
	}()
	sub := Table{Header: d.Table.Header}
	d.Cells[i].Run(d.cellSeed(seed, i), &sub)
	return sub.Rows, nil
}

// Run executes every cell of the definition across the given number of
// workers (0 or less means GOMAXPROCS) and merges the rows in cell order.
// Output is byte-identical for any worker count: determinism comes from the
// per-cell seeds, ordering from the merge.
func (d Def) Run(seed int64, workers int) Table {
	results, err := runPool(workers, len(d.Cells), func(i int) ([][]string, error) {
		return d.runCell(seed, i)
	})
	if err != nil {
		panic(err)
	}
	t := d.Table
	for _, r := range results {
		t.Rows = append(t.Rows, r...)
	}
	return t
}

// runPool fans jobs 0..n-1 across a worker pool and returns their results
// in job order, or an error. The first failure aborts promptly: jobs not yet
// started are skipped rather than ground through (a panicking experiment or
// a dead output sink should not cost the rest of the suite's minutes). The
// reported error is the earliest by job order among those that actually ran.
func runPool(workers, n int, job func(i int) ([][]string, error)) ([][][]string, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([][][]string, n)
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = job(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var aborted atomic.Bool
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if aborted.Load() {
						continue // drain the queue without running
					}
					out[i], errs[i] = job(i)
					if errs[i] != nil {
						aborted.Store(true)
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Runner executes registered experiments with a fixed seed at one Scale,
// whose Workers sizes the cell pool — the engine behind cmd/benchtables and
// cmd/tapestry-sim.
type Runner struct {
	Seed  int64
	Scale Scale
}

// Result pairs an experiment's stable ID with its finished table.
type Result struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Table Table  `json:"table"`
}

// RunMatching builds and runs every experiment matching pattern (see Match)
// and returns the results in presentation order.
func (r Runner) RunMatching(pattern string) ([]Result, error) {
	var out []Result
	err := r.Stream(pattern, func(res Result) error {
		out = append(out, res)
		return nil
	})
	return out, err
}

// RunAndEmit is the one-call CLI backend: it validates the format before
// any experiment runs (a typo'd -format must not cost a full suite run),
// then streams tables as they finish or collects first for the whole-stream
// formats (JSON is one array; CSV pads to the widest table).
func (r Runner) RunAndEmit(w io.Writer, pattern, format string) error {
	switch format {
	case FormatTable, "":
		return r.Stream(pattern, func(res Result) error {
			return Emit(w, FormatTable, []Result{res})
		})
	case FormatJSON, FormatCSV:
		results, err := r.RunMatching(pattern)
		if err != nil {
			return err
		}
		return Emit(w, format, results)
	default:
		return fmt.Errorf("expt: unknown format %q (want table, json or csv)", format)
	}
}

// Stream runs every matching experiment over ONE shared worker pool — so
// cells of single-cell experiments don't serialize the suite — and calls
// emit with each finished Result in presentation order, as soon as the
// experiment and all experiments before it have completed. Determinism is
// untouched by the pooling: cell seeds depend only on (seed, name, index).
func (r Runner) Stream(pattern string, emit func(Result) error) error {
	exps, err := Match(pattern)
	if err != nil {
		return err
	}
	defs := make([]Def, len(exps))
	type ref struct{ exp, cell int }
	var jobs []ref
	for i, e := range exps {
		defs[i] = e.Make(r.Scale)
		for c := range defs[i].Cells {
			jobs = append(jobs, ref{i, c})
		}
	}

	rows := make([][][][]string, len(exps))
	for i := range defs {
		rows[i] = make([][][]string, len(defs[i].Cells))
	}
	remaining := make([]int, len(exps))
	for i := range defs {
		remaining[i] = len(defs[i].Cells)
	}

	var mu sync.Mutex
	next := 0 // first experiment not yet emitted
	var emitErr error
	// flushLocked emits every leading experiment whose cells all finished.
	flushLocked := func() {
		for next < len(exps) && remaining[next] == 0 && emitErr == nil {
			t := defs[next].Table
			for _, rr := range rows[next] {
				t.Rows = append(t.Rows, rr...)
			}
			emitErr = emit(Result{ID: exps[next].ID, Name: exps[next].Name, Table: t})
			next++
		}
	}

	_, err = runPool(r.Scale.Workers, len(jobs), func(j int) ([][]string, error) {
		ref := jobs[j]
		got, err := defs[ref.exp].runCell(r.Seed, ref.cell)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		rows[ref.exp][ref.cell] = got
		remaining[ref.exp]--
		flushLocked()
		failed := emitErr
		mu.Unlock()
		// A dead sink (e.g. a closed pipe) fails the job so runPool aborts
		// the remaining cells instead of grinding out unprintable results.
		return nil, failed
	})
	if err != nil {
		return err
	}
	return emitErr
}
