// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. 4 and Appendix B) on the scaled synthetic datasets of
// Datasets. Each experiment is a named runner producing one or more
// Tables; cmd/imbench drives them from the command line and bench_test.go
// wraps each one in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls dataset scale and simulation effort.
type Config struct {
	// Quick selects the reduced dataset scale and Monte-Carlo budget used
	// by tests and benchmarks; full scale uses Datasets' full sizes.
	Quick bool
	// MCRuns overrides the Monte-Carlo evaluation budget (0 = default:
	// 10000 full / 300 quick; the paper uses 10K).
	MCRuns int
	// Seed drives every random choice in the experiment.
	Seed uint64
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c Config) runs() int {
	if c.MCRuns > 0 {
		return c.MCRuns
	}
	if c.Quick {
		return 300
	}
	return 10000
}

// kSweep returns the seed-budget sweep for figures plotting against k.
func (c Config) kSweep(max int) []int {
	if c.Quick {
		ks := []int{1, 5, 10, 20}
		out := ks[:0]
		for _, k := range ks {
			if k <= max {
				out = append(out, k)
			}
		}
		return out
	}
	ks := []int{10, 25, 50, 100, 150, 200}
	var out []int
	for _, k := range ks {
		if k <= max {
			out = append(out, k)
		}
	}
	return out
}

// Table is a rendered experiment artifact: one paper table or one figure's
// data series.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a caption note.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned ASCII.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as a CSV document (no notes).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Experiment couples a runner with its paper reference.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string // e.g. "Figure 6(a)"
	Run      func(cfg Config) []Table
}

// Registry maps experiment ids to runners; populated by init() functions
// across this package.
var Registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := Registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	Registry[e.ID] = e
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func fi(x int) string     { return fmt.Sprintf("%d", x) }
