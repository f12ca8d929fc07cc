// Command covercheck guards per-package test coverage. It reads
// `go test -cover` output on stdin, extracts each package's statement
// coverage, and compares it against a checked-in baseline of floors,
// failing (exit 1) when any package dropped below its recorded
// percentage.
//
// Usage (wired up as `make cover`):
//
//	go test -cover ./internal/... |
//	    go run ./cmd/covercheck -baseline COVERAGE_baseline.txt -out COVERAGE_current.txt
//
// The baseline is one "import/path percent" pair per line. After
// intentionally raising (or accepting lower) coverage, refresh it:
//
//	cp COVERAGE_current.txt COVERAGE_baseline.txt
//
// A FAIL line on stdin (a failing test upstream) fails the run before any
// floor is compared, so a pipe cannot hide a red suite. Packages that appear on stdin but not in
// the baseline are reported as new and do not fail the run (their floor is
// recorded once the baseline is refreshed); packages in the baseline that
// produce no coverage line fail it, so a floor cannot silently vanish.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command: it reads `go test -cover` output from stdin, echoes
// it to stdout, reports to stderr, and returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("covercheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "COVERAGE_baseline.txt", "per-package floor file")
	outPath := fs.String("out", "", "write the observed coverage in baseline format")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	got, echoedFail, err := parseCoverage(stdin, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "covercheck:", err)
		return 1
	}
	if echoedFail {
		fmt.Fprintln(stderr, "covercheck: test failures upstream; not gating coverage")
		return 1
	}
	if *outPath != "" {
		if err := writeBaseline(*outPath, got); err != nil {
			fmt.Fprintln(stderr, "covercheck:", err)
			return 1
		}
	}
	floors, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "covercheck:", err)
		return 1
	}

	failed := false
	for _, pkg := range sortedKeys(floors) {
		floor := floors[pkg]
		cur, ok := got[pkg]
		if !ok {
			fmt.Fprintf(stderr, "covercheck: FAIL %s: floor %.1f%% recorded but no coverage reported\n", pkg, floor)
			failed = true
			continue
		}
		if cur < floor {
			fmt.Fprintf(stderr, "covercheck: FAIL %s: coverage %.1f%% below floor %.1f%%\n", pkg, cur, floor)
			failed = true
		}
	}
	for _, pkg := range sortedKeys(got) {
		if _, ok := floors[pkg]; !ok {
			fmt.Fprintf(stderr, "covercheck: note: %s (%.1f%%) has no recorded floor\n", pkg, got[pkg])
		}
	}
	if failed {
		fmt.Fprintln(stderr, "covercheck: coverage regressed; raise the tests or refresh the baseline deliberately")
		return 1
	}
	fmt.Fprintf(stderr, "covercheck: %d packages at or above their floors\n", len(floors))
	return 0
}

// parseCoverage scans `go test -cover` output, echoing it to echo so the
// make target still shows the per-package lines. It returns each
// package's coverage percentage ("[no test files]" packages report 0) and
// whether any FAIL line went by.
func parseCoverage(r io.Reader, echo io.Writer) (map[string]float64, bool, error) {
	got := make(map[string]float64)
	sawFail := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		switch fields[0] {
		case "FAIL":
			sawFail = true
			continue
		case "ok":
		default:
			continue
		}
		pkg := fields[1]
		pct := 0.0
		if i := strings.Index(line, "coverage: "); i >= 0 {
			rest := line[i+len("coverage: "):]
			if j := strings.IndexByte(rest, '%'); j >= 0 {
				v, err := strconv.ParseFloat(rest[:j], 64)
				if err != nil {
					return nil, sawFail, fmt.Errorf("bad coverage in %q: %v", line, err)
				}
				pct = v
			}
		}
		got[pkg] = pct
	}
	return got, sawFail, sc.Err()
}

// readBaseline parses "package percent" lines; blank lines and #-comments
// are skipped.
func readBaseline(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	floors := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad percentage in %q: %v", path, line, err)
		}
		floors[fields[0]] = v
	}
	return floors, sc.Err()
}

// writeBaseline renders coverage in the baseline format, sorted by
// package path.
func writeBaseline(path string, got map[string]float64) error {
	var b strings.Builder
	b.WriteString("# per-package statement coverage floors; regenerate with `make cover`\n")
	b.WriteString("# and `cp COVERAGE_current.txt COVERAGE_baseline.txt` after deliberate changes\n")
	for _, pkg := range sortedKeys(got) {
		fmt.Fprintf(&b, "%s %.1f\n", pkg, got[pkg])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
