package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/cluster"
)

// imrun runs one command line in-process and returns its exit status and
// output.
func imrun(t *testing.T, line string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(line), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs line and fails the test unless it exits 0.
func mustRun(t *testing.T, line string) string {
	t.Helper()
	code, stdout, stderr := imrun(t, line)
	if code != 0 {
		t.Fatalf("imrun %s: exit %d\nstdout:\n%s\nstderr:\n%s", line, code, stdout, stderr)
	}
	return stdout
}

// TestVerbRoundTrip drives gen → build → info → select -sketch → publish on
// a 2k-node BA graph and checks each verb against the library call it
// stands for.
func TestVerbRoundTrip(t *testing.T) {
	for _, tc := range []struct{ model, opinions string }{{"ic", ""}, {"oc", " -opinions normal"}} {
		t.Run(tc.model, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			graphFile, sketchFile := filepath.Join(dir, "g.bin"), filepath.Join(dir, "g.sketch")
			mustRun(t, "gen -type ba -n 2000 -format binary -out "+graphFile+tc.opinions)
			g, err := holisticim.ReadGraphFile(graphFile)
			if err != nil {
				t.Fatal(err)
			}

			mustRun(t, fmt.Sprintf("build -graph %s -out %s -model %s -k 20", graphFile, sketchFile, tc.model))
			got, err := os.ReadFile(sketchFile)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := holisticim.BuildSketch(ctx, g, holisticim.SketchOptions{
				Model: holisticim.ModelKind(tc.model), Epsilon: 0.1, Seed: 1, BuildK: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := holisticim.WriteSketch(&want, sk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("build wrote %d bytes that differ from WriteSketch(BuildSketch(...))'s %d", len(got), want.Len())
			}

			h, err := holisticim.ReadSketchHeader(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			fields := map[string]string{}
			for _, line := range strings.Split(strings.TrimSpace(mustRun(t, "info -sketch "+sketchFile)), "\n") {
				label, value, _ := strings.Cut(line, ":")
				fields[strings.TrimSpace(label)] = strings.TrimSpace(value)
			}
			for label, want := range map[string]string{
				"graph fingerprint": fmt.Sprintf("%016x", h.GraphFingerprint),
				"graph dims":        fmt.Sprintf("%d nodes, %d arcs", h.Nodes, h.Arcs),
				"rr semantics":      h.Kind.String(),
				"epsilon / ell":     fmt.Sprintf("%g / %g", h.Epsilon, h.Ell),
				"seed":              fmt.Sprint(h.Seed),
				"build k":           fmt.Sprint(h.BuildK),
				"opt lower bound":   fmt.Sprintf("%.2f", h.LowerBound),
				"rr sets":           fmt.Sprint(h.Sets),
			} {
				if fields[label] != want {
					t.Errorf("info %s = %q, header has %q", label, fields[label], want)
				}
			}
			if v := fields["snapshot version"]; !strings.HasPrefix(v, fmt.Sprint(h.Version)) || strings.Contains(v, "opinion-weighted") != h.Weighted() {
				t.Errorf("info snapshot version = %q, header has v%d weighted=%v", v, h.Version, h.Weighted())
			}

			f, err := os.Open(sketchFile)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := holisticim.ReadSketch(f, g)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := loaded.Select(ctx, 10)
			if err != nil {
				t.Fatal(err)
			}
			out := mustRun(t, fmt.Sprintf("select -graph %s -sketch %s -alg imm -model %s -k 10 -runs 100 -explain", graphFile, sketchFile, tc.model))
			if !strings.Contains(out, "via sketch") {
				t.Errorf("-explain does not show the sketch serving:\n%s", out)
			}
			if want := fmt.Sprintf("selection : %v (", direct.Seeds); !strings.Contains(out, want) {
				t.Errorf("select -sketch printed\n%s\nwant the seeds of ReadSketch(...).Select(10): %v", out, direct.Seeds)
			}
			metrics := regexp.MustCompile(`(?m)^metric    : (\S+) =`).FindAllStringSubmatch(out, -1)
			if len(metrics) == 0 || !slices.IsSortedFunc(metrics, func(a, b []string) int { return strings.Compare(a[1], b[1]) }) {
				t.Errorf("metric lines missing or unsorted:\n%s", out)
			}

			code, _, stderr := imrun(t, fmt.Sprintf("select -graph %s -p 0.2 -sketch %s -alg imm -model %s -k 10", graphFile, sketchFile, tc.model))
			if code != 1 || !strings.Contains(stderr, "-p") || !strings.Contains(stderr, "fingerprint") {
				t.Errorf("mismatched -sketch: exit %d, stderr %q; want exit 1 naming the fingerprint and -p", code, stderr)
			}

			store := filepath.Join(dir, "store")
			mustRun(t, fmt.Sprintf("publish -type ba -n 2000 -store %s -name soc -model %s -eps 0.1 -seed 1 -k 20%s", store, tc.model, tc.opinions))
			st, err := cluster.OpenStore(store)
			if err != nil {
				t.Fatal(err)
			}
			m, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			ge, ok := m.GraphByName("soc")
			if !ok || len(m.Sketches) != 1 {
				t.Fatalf("manifest %+v: want graph soc and one sketch", m)
			}
			if fp := fmt.Sprintf("%016x", g.Fingerprint()); ge.Fingerprint != fp || m.Sketches[0].GraphFingerprint != fp {
				t.Errorf("published graph %s, sketch over %s; gen wrote %s", ge.Fingerprint, m.Sketches[0].GraphFingerprint, fp)
			}
		})
	}
}

// TestParameterRecipe pins the -p defaults: binary files keep their
// values, text edge lists and generators take 0.1; -opinions alone draws ϕ.
func TestParameterRecipe(t *testing.T) {
	dir := t.TempDir()
	bin, txt := filepath.Join(dir, "g.bin"), filepath.Join(dir, "g.txt")
	mustRun(t, "gen -type ba -n 200 -p 0.3 -format binary -out "+bin)
	mustRun(t, "gen -type ba -n 200 -p 0.3 -out "+txt)
	for _, tc := range []struct {
		line    string
		p, phi0 float64
	}{
		{"-graph " + bin, 0.3, 0},
		{"-graph " + bin + " -p 0.2", 0.2, 0},
		{"-graph " + txt, 0.1, 0},
		{"-graph " + txt + " -p -2", 0.3, 0},
		{"-type ba -n 200", 0.1, 0},
		{"-type ba -n 200 -opinions normal", 0.1, -1},
	} {
		c, err := parse(strings.Fields(tc.line), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		g, err := loadGraph(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		if p := g.ProbAt(0); p != tc.p {
			t.Errorf("%s: p = %g, want %g", tc.line, p, tc.p)
		}
		if phi := g.PhiAt(0); (tc.phi0 == 0) != (phi == 0) {
			t.Errorf("%s: ϕ = %g, want it drawn only with -opinions", tc.line, phi)
		}
	}
}

// TestUsageErrors pins what parse rejects, each with an error naming the
// offending flag; generator sizes never reach the generators.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"gen -type ba -n 0", "-n 0"},
		{"gen -type ba -n 1", "-n 1"},
		{"gen -type rmat -n 1", "-n 1"},
		{"gen -type ba -n -5", "-n -5"},
		{"gen -type rmat -n 2147483648", "-n 2147483648"},
		{"gen -type ba -n 3000000000", "-n 3000000000"},
		{"gen -type ba -deg 0", "-deg 0"},
		{"gen -type ba -deg -3", "-deg -3"},
		{"gen -type rmat -m -1", "-m -1"},
		{"gen -type er", "-type"},
		{"gen -type ba -format xml", "-format"},
		{"select -type ba -p -0.5", "-p"},
		{"select -type ba -opinions skewed", "opinions"},
		{"select -type ba -ks 5,x", "-ks"},
		{"select", "graph source"},
		{"select -graph g.txt -dataset soc", "graph source"},
		{"select -type ba extra", "unexpected argument"},
		{"build -type ba", "-out"},
		{"build -type ba -out s -store d", "-store"},
		{"select -type ba -out s", "-out"},
		{"publish -type ba -name soc", "-store"},
		{"info", "-sketch"},
		{"listdatasets", "unknown verb"},
		{"-listdatasets", "-listdatasets"},
		{"build -type ba -out s -publish d", "-publish"},
	} {
		var stderr bytes.Buffer
		if _, err := parse(strings.Fields(tc.line), &stderr); err == nil || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("parse(%q) = %v, stderr %q; want an error naming %q", tc.line, err, stderr.String(), tc.want)
		}
	}
	for _, line := range []string{"gen -type rmat -n 2147483647", "gen -type ba -n 2 -deg 1", "gen -type rmat -m 0"} {
		if _, err := parse(strings.Fields(line), io.Discard); err != nil {
			t.Errorf("parse(%q) = %v, want it accepted", line, err)
		}
	}
}

// TestSelectRefusesInvalidParameters: parameters that parse but that the
// library refuses exit 1 with the library's message — no panic, and no
// selection printed.
func TestSelectRefusesInvalidParameters(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"select -type ba -n 200 -alg osim -lambda -1 -runs 20", "lambda -1"},
		{"select -type ba -n 200 -alg imm -eps 1e9", "epsilon 1e+09 out of (0,1]"},
		{"build -type ba -n 200 -eps -0.5 -out " + filepath.Join(t.TempDir(), "s"), "epsilon -0.5 out of (0,1]"},
	} {
		code, stdout, stderr := imrun(t, tc.line)
		if code != 1 || !strings.Contains(stderr, "imrun: holisticim: "+tc.want) || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 naming %q", tc.line, code, stdout, stderr, tc.want)
		}
	}
}

// TestAlgHelpListsAcceptedAlgorithms: every name `select -alg`'s help
// lists is one the query planner accepts, and the list holds all ten.
func TestAlgHelpListsAcceptedAlgorithms(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parse([]string{"select", "-h"}, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("select -h: %v", err)
	}
	m := regexp.MustCompile(`algorithm: (\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no algorithm list in the help:\n%s", stderr.String())
	}
	names := strings.Split(m[1], "|")
	for _, name := range names {
		q := holisticim.Query{Algorithm: holisticim.Algorithm(name), K: 1}
		if _, err := q.Normalized(); err != nil {
			t.Errorf("-alg %s: %v", name, err)
		}
	}
	if len(names) != 10 {
		t.Errorf("help lists %d algorithms %v, want 10", len(names), names)
	}
}

// TestDocumentedInvocationsParse parses every imrun command line the docs,
// scripts, compose file and repository skill notes show with the real verb
// flag sets.
func TestDocumentedInvocationsParse(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	for _, pattern := range []string{"README.md", "docs/*.md", "scripts/*.sh",
		"examples/cluster/docker-compose.yml", ".*/skills/*/SKILL.md"} {
		matches, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	total := 0
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := invocations(string(data))
		t.Logf("%s: %d invocations", name, len(lines))
		total += len(lines)
		for _, args := range lines {
			if _, err := parse(args, io.Discard); err != nil && !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%s: imrun %s: %v", name, strings.Join(args, " "), err)
			}
		}
	}
	if total == 0 {
		t.Fatal("found no documented imrun invocation")
	}
}

var (
	// composeCommand matches a compose service whose entrypoint is imrun,
	// capturing its command array.
	composeCommand = regexp.MustCompile(`(?s)entrypoint:\s*\["[^"]*/imrun"\]\s*command:\s*\[([^\]]*)\]`)
	quoted         = regexp.MustCompile(`"([^"]*)"`)
	// shellCommand matches imrun invoked from a shell line (plain, under
	// go run ./cmd/imrun or as a quoted path) and captures its arguments up
	// to the end of the command.
	shellCommand = regexp.MustCompile("(?:^|[\\s/`])imrun\"?((?:[ \\t]+[^\\s|&;#>`]+)+)")
	shellVar     = regexp.MustCompile(`\$\{?\w+\}?`)
)

// invocations extracts the argument lists of every imrun command line in
// a document: compose-array commands, and shell lines (with backslash
// continuations joined) whose first argument is a verb or a flag and that
// pass at least one flag — prose naming a verb, such as "imrun build", is
// not a command line. A shell variable reads as 2, which every numeric
// flag accepts (a generator needs two nodes).
func invocations(doc string) [][]string {
	var out [][]string
	for _, m := range composeCommand.FindAllStringSubmatch(doc, -1) {
		var args []string
		for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
			args = append(args, q[1])
		}
		out = append(out, args)
	}
	for _, line := range strings.Split(strings.ReplaceAll(doc, "\\\n", " "), "\n") {
		for _, m := range shellCommand.FindAllStringSubmatch(line, -1) {
			args := strings.Fields(shellVar.ReplaceAllString(m[1], "2"))
			for i, a := range args {
				args[i] = strings.Trim(a, `"'`)
			}
			isFlag := func(a string) bool { return strings.HasPrefix(a, "-") }
			if (verbs[args[0]] != nil || isFlag(args[0])) && slices.ContainsFunc(args, isFlag) {
				out = append(out, args)
			}
		}
	}
	return out
}
