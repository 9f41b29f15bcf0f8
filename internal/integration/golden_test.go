package integration

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// updateGolden rewrites the daemon golden files instead of comparing
// against them: go test ./internal/integration/ -run TestDaemonGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the built daemons")

// goldenDaemons are every long-running daemon under cmd/.
var goldenDaemons = []string{"acctd", "authzd", "filed", "gatewayd", "groupd", "kdc"}

// ledgeredDaemons take -ledger-dir and serve ledger and replication
// health on /healthz.
var ledgeredDaemons = []string{"acctd", "authzd", "groupd"}

// TestDaemonGolden pins each daemon's command-line surface and its
// /healthz key set: every flag name with its default value (as -h
// prints it), and the sorted top-level /healthz keys of the ledgered
// daemons (build-environment vcs* keys excluded). Refactoring the
// daemons' shared bootstrap must leave both unchanged.
func TestDaemonGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	bins := buildDaemons(t, goldenDaemons...)
	for _, name := range goldenDaemons {
		t.Run("flags/"+name, func(t *testing.T) {
			out, err := exec.Command(bins[name], "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h: %v\n%s", name, err, out)
			}
			checkGolden(t, "flags_"+name+".golden", flagDefaults(t, string(out)))
		})
	}
	for _, name := range ledgeredDaemons {
		t.Run("healthz/"+name, func(t *testing.T) {
			checkGolden(t, "healthz_"+name+".golden", healthzKeys(t, bins[name]))
		})
	}
}

// buildDaemons compiles the named cmd/ packages into a temp dir.
func buildDaemons(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins := make(map[string]string, len(names))
	for _, n := range names {
		bins[n] = filepath.Join(dir, n)
	}
	return bins
}

// flagHead matches the first line of one flag in flag.PrintDefaults
// output; defaultRE the trailing "(default X)" of its usage text.
var (
	flagHead  = regexp.MustCompile(`^  -(\S+)`)
	defaultRE = regexp.MustCompile(`\(default (.*)\)$`)
)

// flagDefaults reduces -h output to one "-name=default" line per flag,
// sorted; zero-valued defaults (which -h omits) render empty.
func flagDefaults(t *testing.T, help string) string {
	t.Helper()
	var lines []string
	var name, usage string
	flush := func() {
		if name == "" {
			return
		}
		def := ""
		if m := defaultRE.FindStringSubmatch(strings.TrimSpace(usage)); m != nil {
			def = m[1]
		}
		lines = append(lines, fmt.Sprintf("-%s=%s", name, def))
	}
	for _, line := range strings.Split(help, "\n") {
		if m := flagHead.FindStringSubmatch(line); m != nil {
			flush()
			name, usage = m[1], line
			continue
		}
		usage += " " + strings.TrimSpace(line)
	}
	flush()
	if len(lines) == 0 {
		t.Fatalf("no flags in -h output:\n%s", help)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// healthzKeys starts a ledgered daemon on ephemeral ports and returns
// the sorted key set of its /healthz document, one key per line.
func healthzKeys(t *testing.T, bin string) string {
	t.Helper()
	work := t.TempDir()
	cmd := exec.Command(bin,
		"-state", filepath.Join(work, "state"),
		"-ledger-dir", filepath.Join(work, "ledger"),
		"-listen", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-log-format", "json")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	metricsURL := awaitServing(t, stderr)
	resp, err := http.Get(strings.TrimSuffix(metricsURL, "/metrics") + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		// vcs* build info is present only when the binary was built
		// inside a VCS checkout, so it says nothing about the daemon.
		if !strings.HasPrefix(k, "vcs") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// awaitServing reads a daemon's JSON log until its RPC listener is up
// and returns the metrics URL it logged on the way; the rest of the
// log is drained in the background so the daemon never blocks on it.
func awaitServing(t *testing.T, stderr io.Reader) string {
	t.Helper()
	type result struct {
		url string
		err error
	}
	done := make(chan result, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		var url string
		var seen []string
		for sc.Scan() {
			seen = append(seen, sc.Text())
			var rec struct {
				Msg  string `json:"msg"`
				URL  string `json:"url"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			if rec.Msg == "metrics listening" {
				url = rec.URL
			}
			if strings.HasSuffix(rec.Msg, "listening") && rec.Addr != "" {
				done <- result{url: url}
				_, _ = io.Copy(io.Discard, stderr)
				return
			}
		}
		done <- result{err: fmt.Errorf("daemon exited before listening:\n%s", strings.Join(seen, "\n"))}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.url == "" {
			t.Fatal("daemon logged no metrics URL")
		}
		return r.url
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not start listening within 15s")
		return ""
	}
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s changed:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestLedgeredDaemonsRefuseBadFsync: an invalid -fsync stops a
// ledgered daemon at startup even without -ledger-dir, instead of
// being ignored until a ledger is configured.
func TestLedgeredDaemonsRefuseBadFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	bins := buildDaemons(t, ledgeredDaemons...)
	for _, name := range ledgeredDaemons {
		work := t.TempDir()
		cmd := exec.Command(bins[name], "-state", filepath.Join(work, "state"),
			"-listen", "127.0.0.1:0", "-fsync", "bogus")
		done := make(chan error, 1)
		var out strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(out.String(), "bogus") {
				t.Errorf("%s -fsync=bogus: exit %v, output:\n%s", name, err, out.String())
			}
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Errorf("%s -fsync=bogus kept running", name)
		}
	}
}
