package hrdb_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// runGo runs a package main via `go run` and returns its combined output.
func runGo(t *testing.T, args ...string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestCmdHrfiguresSmoke: every figure renders and contains its paper facts.
func TestCmdHrfiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runGo(t, "./cmd/hrfigures")
	for _, want := range []string{
		"Figure 1", "flies(Patricia) = true", "flies(Paul) = false",
		"Figure 3", "inconsistent, as the paper says",
		"Figure 4", "color(Appu, White) = true",
		"Figure 6", "After consolidation",
		"Figure 10", "Jack and Jill",
		"Figure 11", "no loss of information: true",
		"off-path", "on-path", "CONFLICT",
		"PREFER AFP OVER GP: flies(Patricia) = true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hrfigures output missing %q", want)
		}
	}
}

// TestCmdHrbenchSmoke: the cheaper experiments print their tables and pass
// their claim checks, and an unknown experiment exits 1.
func TestCmdHrbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runGo(t, "./cmd/hrbench", "E1", "E2", "E3", "E5", "E7")
	for _, want := range []string{"GOMAXPROCS=", "E1", "1073×", "E2", "joins/query", "E3", "E5", "E7", "mined tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrbench output missing %q:\n%s", want, out)
		}
	}
	cmd := exec.Command("go", "run", "./cmd/hrbench", "E8")
	bad, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(bad), `unknown experiment "E8"`) {
		t.Errorf("hrbench E8: %v, want exit status 1 naming the experiment:\n%s", err, bad)
	}
}

// TestCmdHrshellExec: the -e one-shot mode drives a full session.
func TestCmdHrshellExec(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	script := `CREATE HIERARCHY D; CLASS C UNDER D; INSTANCE x UNDER C;
CREATE RELATION R (X: D); ASSERT R (C); HOLDS R (x); COUNT R;`
	out := runGo(t, "./cmd/hrshell", "-e", script)
	if !strings.Contains(out, "true") || !strings.Contains(out, "count = 1") {
		t.Fatalf("hrshell output:\n%s", out)
	}
}

// TestExamplesRun: every example main exits 0 and prints its headline fact.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		pkg  string
		want string
	}{
		{"./examples/quickstart", "Does Paul fly? false"},
		{"./examples/university", "Does John respect Fagin? true"},
		{"./examples/zoo", "no loss of information: true"},
		{"./examples/knowledgebase", "left precedence resolves zephyr.battery = poor"},
		{"./examples/reasoner", "travelsFar(Tweety) = true"},
		{"./examples/partialinfo", "some swan flies?  true"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.pkg, func(t *testing.T) {
			t.Parallel()
			out := runGo(t, c.pkg)
			if !strings.Contains(out, c.want) {
				t.Errorf("%s output missing %q:\n%s", c.pkg, c.want, out)
			}
		})
	}
}
