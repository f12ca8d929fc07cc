// Command leakfind runs the Section 5 privacy-leak identification over a
// longitudinal history store (the store cmd/rdnsscan -store and the
// campaigns write and cmd/rdnsd serves; see docs/storage.md): it excludes
// router-level records, matches given names, aggregates per hostname
// suffix, applies the unique-name and ratio thresholds, and prints the
// identified networks with their type breakdown.
//
//	leakfind -store campaign.hist [-dynamic dynprefixes.txt] \
//	         [-min-names 18] [-min-ratio 0.03]
//
// The optional -dynamic file lists one /24 per line (the output of
// cmd/dynfind); without it, every observation is treated as dynamic, which
// matches running the tool on data already restricted to dynamic space.
//
// The store is read one bounded page of rows at a time
// (histstore.Store.EachRow), so memory stays constant in the store's size
// (minus the per-record dedup set).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storePath := fs.String("store", "", "longitudinal history store to read (see docs/storage.md)")
	dynFile := fs.String("dynamic", "", "file listing dynamic /24 prefixes (one per line)")
	minNames := fs.Int("min-names", 18, "minimum unique given names per suffix")
	minRatio := fs.Float64("min-ratio", 0.03, "minimum unique-names/records ratio")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *storePath == "" {
		fmt.Fprintln(stderr, "need -store")
		fs.Usage()
		return 2
	}

	var dynSet map[dnswire.Prefix]bool
	if *dynFile != "" {
		var err error
		if dynSet, err = readPrefixes(*dynFile); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	a := privleak.NewAnalyzer(privleak.Config{
		MinUniqueNames: *minNames,
		MinRatio:       *minRatio,
		GivenNames:     names.Top50,
	})
	if err := observeStore(*storePath, observer(a, dynSet)); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printReport(stdout, a.Finish())
	return 0
}

// observer feeds each distinct (ip, ptr) observation to a, marked dynamic
// when it lies in dynSet (every observation when dynSet is nil).
func observer(a *privleak.Analyzer, dynSet map[dnswire.Prefix]bool) func(dataset.Row) error {
	type record struct {
		ip  dnswire.IPv4
		ptr dnswire.Name
	}
	seen := map[record]bool{}
	return func(r dataset.Row) error {
		key := record{r.IP, r.PTR}
		if seen[key] {
			return nil
		}
		seen[key] = true
		dynamic := dynSet == nil || dynSet[r.IP.Slash24()]
		a.Observe(privleak.RecordObservation{IP: r.IP, HostName: r.PTR, Dynamic: dynamic})
		return nil
	}
}

// printReport writes the identified networks and their type breakdown,
// types in their Figure 4 order.
func printReport(w io.Writer, res *privleak.Result) {
	fmt.Fprintf(w, "identified %d leaking networks (of %d suffixes with name matches)\n\n",
		len(res.Identified), len(res.Suffixes))
	fmt.Fprintln(w, "suffix,type,records,unique_names,ratio")
	for _, s := range res.Identified {
		fmt.Fprintf(w, "%s,%s,%d,%d,%.3f\n", s.Suffix, s.Type, s.Records, s.UniqueNames, s.Ratio())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "type breakdown:")
	byType := res.TypeBreakdown()
	types := make([]netsim.NetworkType, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	slices.Sort(types)
	for _, t := range types {
		fmt.Fprintf(w, "  %-12s %d\n", t, byType[t])
	}
}

// observeStore replays every observation of the history store at path
// through fn.
func observeStore(path string, fn func(dataset.Row) error) error {
	st, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		return err
	}
	defer st.Close()
	return st.EachRow(context.Background(), fn)
}

// readPrefixes reads the -dynamic file: cmd/dynfind's report, or one
// prefix a line.
func readPrefixes(path string) (map[dnswire.Prefix]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dynamicity.ReadPrefixes(f)
}
