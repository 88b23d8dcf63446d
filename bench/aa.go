package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runAA is the benchmark's check on itself: every workload runs twice on the
// same code, in alternating order within each pair of workloads (A B A B), the
// second time on the next seed, and every end-to-end metric must repeat to
// within its bound. Each run is its own process, as the driver's are.
func runAA(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	runs := map[string][]*result{}
	for i := 0; i+1 < len(specs); i += 2 {
		for rep := int64(0); rep < 2; rep++ {
			for _, sp := range specs[i : i+2] {
				res, err := runChild(self, sp.name, seed+rep, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
					return 1
				}
				runs[sp.name] = append(runs[sp.name], res)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tfirst\tsecond\tdiff %%\tbound %%\t\n")
	bad := 0
	for _, sp := range specs {
		a, b := runs[sp.name][0], runs[sp.name][1]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := ""
			if diff > d.bound {
				verdict = "OVER"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f\t%.1f\t%s\n", sp.name, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if bad > 0 {
		fmt.Printf("%d of %d pairs differ by more than their bound\n", bad, len(specs)*len(endToEnd))
		return 1
	}
	fmt.Printf("all %d pairs within their bounds\n", len(specs)*len(endToEnd))
	return 0
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
