// Command leakfind runs the Section 5 privacy-leak identification over a
// CSV of reverse-DNS observations — external OpenINTEL-shaped date,ip,ptr
// data, the input cmd/dynfind takes too (dataset.ScanRows): it excludes
// router-level records, matches given names, aggregates per hostname
// suffix, applies the unique-name and ratio thresholds, and prints the
// identified networks with their type breakdown.
//
//	leakfind -input observations.csv [-dynamic dynprefixes.txt] \
//	         [-min-names 18] [-min-ratio 0.03]
//
// With -store it reads a longitudinal history store (the append-only log
// cmd/rdnsd serves; see docs/storage.md) instead of a CSV, replaying every
// stored observation through the same analyzer:
//
//	leakfind -store campaign.hist [-dynamic dynprefixes.txt]
//
// The optional -dynamic file lists one /24 per line (the output of
// cmd/dynfind); without it, every observation is treated as dynamic, which
// matches running the tool on data already restricted to dynamic space.
//
// Both paths stream: CSV rows are observed as they are parsed, and a store
// is read one bounded page of rows at a time, so memory stays constant in
// the input size (minus the per-record dedup set).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
)

func main() {
	input := flag.String("input", "", "CSV of date,ip,ptr observations")
	storePath := flag.String("store", "", "longitudinal history store to read instead of -input (see docs/storage.md)")
	dynFile := flag.String("dynamic", "", "file listing dynamic /24 prefixes (one per line)")
	minNames := flag.Int("min-names", 18, "minimum unique given names per suffix")
	minRatio := flag.Float64("min-ratio", 0.03, "minimum unique-names/records ratio")
	flag.Parse()

	if (*input == "") == (*storePath == "") {
		fmt.Fprintln(os.Stderr, "need exactly one of -input or -store")
		flag.Usage()
		os.Exit(2)
	}

	var dynSet map[dnswire.Prefix]bool
	if *dynFile != "" {
		var err error
		dynSet, err = readPrefixes(*dynFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	a := privleak.NewAnalyzer(privleak.Config{
		MinUniqueNames: *minNames,
		MinRatio:       *minRatio,
		GivenNames:     names.Top50,
	})
	observe := observer(a, dynSet)
	var err error
	if *storePath != "" {
		err = observeStore(*storePath, observe)
	} else {
		err = observeCSV(*input, observe)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printReport(os.Stdout, a.Finish())
}

// observer feeds each distinct (ip, ptr) observation to a, marked dynamic
// when it lies in dynSet (every observation when dynSet is nil).
func observer(a *privleak.Analyzer, dynSet map[dnswire.Prefix]bool) func(dataset.Row) error {
	seen := map[string]bool{}
	return func(r dataset.Row) error {
		key := r.IP.String() + "|" + string(r.PTR)
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

// observeCSV streams the date,ip,ptr CSV through fn without materializing
// the row slice.
func observeCSV(path string, fn func(dataset.Row) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dataset.ScanRows(f, fn)
}

// storePageRows bounds the rows observeStore holds at once.
const storePageRows = 1024

// observeStore replays every observation of a history store through fn,
// in date-then-address order (the stream a full-history Range query
// serves), one bounded RangePage at a time.
func observeStore(path string, fn func(dataset.Row) error) error {
	st, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		return err
	}
	defer st.Close()
	times := st.Times()
	if len(times) == 0 {
		return nil
	}
	var cur histstore.RangeCursor
	for {
		rows, next, more, err := st.RangePage(context.Background(), dnswire.Prefix{}, times[0], times[len(times)-1], cur, storePageRows)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := fn(r); err != nil {
				return err
			}
		}
		if !more {
			return nil
		}
		cur = next
	}
}

func readPrefixes(path string) (map[dnswire.Prefix]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[dnswire.Prefix]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Accept the dynfind CSV shape too (prefix,max,days).
		if i := strings.IndexByte(line, ','); i > 0 {
			line = line[:i]
		}
		if line == "prefix" {
			continue
		}
		p, err := dnswire.ParsePrefix(line)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", line, err)
		}
		out[p] = true
	}
	return out, sc.Err()
}
