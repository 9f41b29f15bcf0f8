package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	Metrics []struct {
		benchMetric
		Kind  string `json:"kind"`
		Layer string `json:"layer"`
	} `json:"metrics"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCatalogueMatchesBenchmark pins the metric catalogue to
// BENCHMARK.json: the same names, units and directions, and every
// workload the benchmark runs.
func TestCatalogueMatchesBenchmark(t *testing.T) {
	var bench benchFile
	var cat catalogue
	readJSON(t, "../BENCHMARK.json", &bench)
	readJSON(t, "catalogue.json", &cat)
	byKind := map[string]map[string]benchMetric{}
	for _, m := range cat.Metrics {
		if byKind[m.Kind] == nil {
			byKind[m.Kind] = map[string]benchMetric{}
		}
		byKind[m.Kind][m.Name] = m.benchMetric
	}
	for kind, ms := range map[string][]benchMetric{"end_to_end": bench.EndToEnd, "per_layer": bench.PerLayer} {
		if len(ms) != len(byKind[kind]) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalogue.json %d", kind, len(ms), len(byKind[kind]))
		}
		for _, m := range ms {
			if got, ok := byKind[kind][m.Name]; !ok || got != m {
				t.Errorf("%s metric %+v: catalogue has %+v", kind, m, got)
			}
		}
	}
	if len(bench.Workloads) != len(workloads) || len(cat.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, catalogue.json %d, program %d", len(bench.Workloads), len(cat.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bench.Workloads[i].Name != wl.name || cat.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json %q, catalogue.json %q, program %q", i, bench.Workloads[i].Name, cat.Workloads[i].Name, wl.name)
		}
	}
}

// TestSmoke runs every workload briefly, traced (so both the untraced
// and the traced window run), plus one untraced run, and checks that
// the correctness gate and parity checks pass, that every catalogued
// metric is printed with its unit, and that the result line carries
// exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up full deployments")
	}
	var bench benchFile
	var cat catalogue
	readJSON(t, "../BENCHMARK.json", &bench)
	readJSON(t, "catalogue.json", &cat)
	type runCase struct {
		workload string
		trace    bool
	}
	cases := []runCase{{"mixed", false}}
	for _, wl := range workloads {
		cases = append(cases, runCase{wl.name, true})
	}
	for _, c := range cases {
		var out bytes.Buffer
		res, err := run(config{
			workload: c.workload, seed: 1, seconds: 6, trace: c.trace,
			workDir: t.TempDir(),
		}, &out)
		if err != nil {
			t.Fatalf("%s trace=%v: %v\n%s", c.workload, c.trace, err, out.String())
		}
		text := out.String()
		if !res.correct || res.failed != 0 || strings.Contains(text, "\nFAIL") {
			t.Fatalf("%s trace=%v: gate or parity failed\n%s", c.workload, c.trace, text)
		}

		want := bench.EndToEnd
		if c.trace {
			want = bench.PerLayer
		}
		printResult(&out, res)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: result line: %v", c.workload, err)
		}
		if !last.Correct || last.Attempted < 1 || len(last.Metrics) != len(want) {
			t.Errorf("%s trace=%v: result line %+v, want %d metrics", c.workload, c.trace, last, len(want))
		}
		for _, m := range want {
			if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%v: result metric %s = %+v, want unit %s", c.workload, c.trace, m.Name, got, m.Unit)
			}
		}

		for _, m := range cat.Metrics {
			if m.Kind == "per_layer" && !c.trace {
				continue
			}
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+(\S+)\s+` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
			if !re.MatchString(text) {
				t.Errorf("%s trace=%v: %s not printed with unit %s", c.workload, c.trace, m.Name, m.Unit)
			}
		}
	}
}
