package microbench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestCompare pins the CI gate's rules: ns/op may regress by the tolerance
// and no more, allocs/op by +5% and +0.5 and no more, a new benchmark passes,
// a vanished one fails, and the report comes out sorted.
func TestCompare(t *testing.T) {
	baseline := []Result{
		{Name: "Fast", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "Pooled", NsPerOp: 1000, AllocsPerOp: 0.6},
		{Name: "Epoch", NsPerOp: 50000, AllocsPerOp: 164},
	}
	cases := []struct {
		name    string
		current []Result
		tol     float64
		want    []string // a substring per expected violation, in order
	}{
		{
			name: "identical results pass",
			current: []Result{
				{Name: "Fast", NsPerOp: 100}, {Name: "Pooled", NsPerOp: 1000, AllocsPerOp: 0.6}, {Name: "Epoch", NsPerOp: 50000, AllocsPerOp: 164},
			},
			tol: 0.25,
		},
		{
			name: "ns within tolerance, allocs within the slack, faster is fine",
			current: []Result{
				{Name: "Fast", NsPerOp: 125, AllocsPerOp: 0.5},         // +25% exactly; 0 -> 0.5 is the absolute slack
				{Name: "Pooled", NsPerOp: 10, AllocsPerOp: 1.13},       // 0.6*1.05+0.5
				{Name: "Epoch", NsPerOp: 62000, AllocsPerOp: 172.7},    // 164*1.05+0.5
				{Name: "BrandNew", NsPerOp: 9e9, AllocsPerOp: 1000000}, // absent from the baseline: passes
			},
			tol: 0.25,
		},
		{
			name: "ns beyond tolerance",
			current: []Result{
				{Name: "Fast", NsPerOp: 126}, {Name: "Pooled", NsPerOp: 1000, AllocsPerOp: 0.6}, {Name: "Epoch", NsPerOp: 50000, AllocsPerOp: 164},
			},
			tol:  0.25,
			want: []string{"Fast: ns/op 100 -> 126"},
		},
		{
			name: "a real allocation added to a zero-alloc path",
			current: []Result{
				{Name: "Fast", NsPerOp: 100, AllocsPerOp: 1}, {Name: "Pooled", NsPerOp: 1000, AllocsPerOp: 0.6}, {Name: "Epoch", NsPerOp: 50000, AllocsPerOp: 164},
			},
			tol:  0.25,
			want: []string{"Fast: allocs/op 0.0 -> 1.0"},
		},
		{
			name: "both gates at once, a vanished benchmark, sorted output",
			current: []Result{
				{Name: "Pooled", NsPerOp: 2000, AllocsPerOp: 3}, {Name: "Epoch", NsPerOp: 50000, AllocsPerOp: 173},
			},
			tol: 0.5,
			want: []string{
				"Epoch: allocs/op 164.0 -> 173.0",
				"Fast: present in baseline but not measured",
				"Pooled: allocs/op 0.6 -> 3.0",
				"Pooled: ns/op 1000 -> 2000 (+100%, tolerance 50%)",
			},
		},
	}
	for _, tc := range cases {
		got := Compare(baseline, tc.current, tc.tol)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d violations, want %d:\n%s", tc.name, len(got), len(tc.want), strings.Join(got, "\n"))
			continue
		}
		for i := range got {
			if !strings.Contains(got[i], tc.want[i]) {
				t.Errorf("%s: violation %d is %q, want it to contain %q", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestJSONRoundTrip: what WriteJSON emits, ReadJSON reads back unchanged — the
// committed BENCH_micro.json is both the gate's input and its output format.
func TestJSONRoundTrip(t *testing.T) {
	in := []Result{
		{Name: "SweepDeadEpoch", NsPerOp: 127194.5, AllocsPerOp: 19, BytesPerOp: 20200, Iterations: 4000,
			Metrics: map[string]float64{"distinct_neighbors": 128, "msgs/epoch": 256}},
		{Name: "NextHop", NsPerOp: 49, Iterations: 12947919},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the results:\n in  %+v\n out %+v", in, out)
	}
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("ReadJSON accepted malformed input")
	}
}
