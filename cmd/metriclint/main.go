// Command metriclint enforces the repository's metric-name conventions
// statically: it parses every non-test Go file under the given roots,
// finds Counter/Gauge/Histogram registration calls (a CounterView,
// GaugeView or HistogramView registers its kind), resolves their name
// arguments (string literals, package-level string consts, and
// concatenations thereof — a label block like `{endpoint="at"}` is
// stripped before checking), and fails the build on violations:
//
//   - names are lowercase_underscore with a known subsystem prefix
//     (scan, hist, dnsclient, dnsserver, reactive, rdnsd, repl, load)
//   - counters end in _total
//   - gauges do not end in _total (they are levels, not accumulations)
//   - histograms end in a unit suffix: _seconds, _bytes, _ns, or _depth
//   - one base name is never registered as two different instrument
//     kinds anywhere in the tree
//
// Names the resolver cannot reduce to at least a full base name (built
// by fmt.Sprintf, loop variables, helper funcs) are skipped and counted.
//
//	metriclint ./internal ./cmd
//
// Exit 0 when clean, 1 on violations, 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// knownPrefixes are the subsystem prefixes a metric may start with. Add
// a subsystem here when a new package grows its own metric family.
var knownPrefixes = map[string]bool{
	"scan": true, "hist": true, "dnsclient": true, "dnsserver": true,
	"reactive": true, "rdnsd": true, "repl": true, "load": true,
	"vantage": true,
}

// histogramSuffixes are the unit suffixes a histogram name may end with.
var histogramSuffixes = []string{"_seconds", "_bytes", "_ns", "_depth"}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// registration is one resolved metric registration site.
type registration struct {
	pos  token.Position
	kind string // "Counter", "Gauge", "Histogram"
	base string // metric name with any {label} block stripped
}

// finding is one convention violation.
type finding struct {
	pos token.Position
	msg string
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: metriclint [roots...] (default .)")
		flag.PrintDefaults()
	}
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}

	dirs, err := goDirs(roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	var regs []registration
	dynamic, files := 0, 0
	for _, dir := range dirs {
		pkgFiles, err := parseDir(fset, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(2)
		}
		files += len(pkgFiles)
		r, dyn := collect(fset, pkgFiles)
		regs = append(regs, r...)
		dynamic += dyn
	}

	findings := lint(regs)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d violations in %d registrations\n", len(findings), len(regs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "metriclint: ok (%d registrations across %d files, %d dynamic skipped)\n",
		len(regs), files, dynamic)
}

// goDirs walks the roots and returns every directory holding .go files,
// sorted for deterministic output.
func goDirs(roots []string) ([]string, error) {
	seen := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				seen[filepath.Dir(path)] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses one directory's non-test files as a unit, so consts
// defined in one file resolve at registration sites in a sibling.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// collect finds the package's registration calls and resolves their
// names; dyn counts the sites whose base name could not be resolved.
func collect(fset *token.FileSet, files []*ast.File) (regs []registration, dyn int) {
	consts := constStrings(files)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind := strings.TrimSuffix(sel.Sel.Name, "View")
			if kind != "Counter" && kind != "Gauge" && kind != "Histogram" {
				return true
			}
			prefix, complete := resolve(call.Args[0], consts)
			base, ok := baseName(prefix, complete)
			if !ok {
				dyn++
				return true
			}
			regs = append(regs, registration{pos: fset.Position(call.Pos()), kind: kind, base: base})
			return true
		})
	}
	return regs, dyn
}

// constStrings collects the package's string constants, including ones
// defined by concatenating earlier constants.
func constStrings(files []*ast.File) map[string]string {
	out := map[string]string{}
	// Two passes so a const referencing a const declared later (or in a
	// later file) still resolves.
	for pass := 0; pass < 2; pass++ {
		for _, f := range files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						if v, complete := resolve(vs.Values[i], out); complete {
							out[name.Name] = v
						}
					}
				}
			}
		}
	}
	return out
}

// resolve reduces an expression to its leading string value. complete
// reports whether the whole expression resolved; when false, prefix
// holds the resolvable left part (enough to lint `const + "{label}"`
// names whose label half embeds a variable).
func resolve(e ast.Expr, consts map[string]string) (prefix string, complete bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		if err != nil {
			return "", false
		}
		return s, true
	case *ast.Ident:
		s, ok := consts[v.Name]
		return s, ok
	case *ast.ParenExpr:
		return resolve(v.X, consts)
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		left, ok := resolve(v.X, consts)
		if !ok {
			return left, false
		}
		right, ok := resolve(v.Y, consts)
		return left + right, ok
	}
	return "", false
}

// baseName strips the {label} block and reports whether the resolved
// prefix covers the full base name: either the expression resolved
// completely, or the unresolved part starts inside a label block.
func baseName(prefix string, complete bool) (string, bool) {
	if i := strings.IndexByte(prefix, '{'); i >= 0 {
		return prefix[:i], true
	}
	if complete && prefix != "" {
		return prefix, true
	}
	return "", false
}

// lint applies the conventions to the resolved registrations.
func lint(regs []registration) []finding {
	var out []finding
	bad := func(r registration, format string, args ...any) {
		out = append(out, finding{pos: r.pos, msg: fmt.Sprintf(format, args...)})
	}
	kinds := map[string]registration{} // base -> first registration
	for _, r := range regs {
		if !nameRE.MatchString(r.base) {
			bad(r, "%s %q: not lowercase_underscore", r.kind, r.base)
			continue
		}
		px := r.base[:strings.IndexByte(r.base+"_", '_')]
		if !knownPrefixes[px] {
			bad(r, "%s %q: unknown subsystem prefix %q (extend knownPrefixes for a new family)", r.kind, r.base, px)
		}
		switch r.kind {
		case "Counter":
			if !strings.HasSuffix(r.base, "_total") {
				bad(r, "Counter %q: counters must end in _total", r.base)
			}
		case "Gauge":
			if strings.HasSuffix(r.base, "_total") {
				bad(r, "Gauge %q: gauges are levels, not accumulations — drop _total", r.base)
			}
		case "Histogram":
			okSuffix := false
			for _, s := range histogramSuffixes {
				if strings.HasSuffix(r.base, s) {
					okSuffix = true
					break
				}
			}
			if !okSuffix {
				bad(r, "Histogram %q: histograms must carry a unit suffix (%s)", r.base, strings.Join(histogramSuffixes, ", "))
			}
		}
		if first, ok := kinds[r.base]; ok {
			if first.kind != r.kind {
				bad(r, "%s %q: already registered as %s at %s", r.kind, r.base, first.kind, first.pos)
			}
		} else {
			kinds[r.base] = r
		}
	}
	return out
}
