// Command dynfind runs the Section 4 dynamicity heuristic over a
// longitudinal history store (the store cmd/rdnsscan -store and the
// campaigns write and cmd/rdnsd serves; see docs/storage.md) and reports
// which /24 prefixes expose dynamic client behaviour.
//
//	dynfind -store campaign.hist [-x 10] [-y 7] [-min 10]
//
// The store is read one bounded page of rows at a time
// (histstore.Store.EachRow); only the count series is held. The Section
// 4.1 validation against a ground-truth campus is `experiments -exp
// validation`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/histstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storePath := fs.String("store", "", "longitudinal history store to read (see docs/storage.md)")
	x := fs.Float64("x", 10, "change percentage threshold X")
	y := fs.Int("y", 7, "minimum change days Y")
	minAddr := fs.Int("min", 10, "minimum daily addresses to consider a /24")
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
	series, err := seriesFromStore(*storePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res := dynamicity.Analyze(series, dynamicity.Config{MinAddresses: *minAddr, ChangePercent: *x, MinChangeDays: *y})
	res.WriteReport(stdout)
	return 0
}

// seriesFromStore counts the addresses holding a record per /24 at every
// snapshot of the history store at path. A snapshot holds at most one
// record per address, so each row counts one.
func seriesFromStore(path string) (*dataset.CountSeries, error) {
	st, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	series := dataset.NewCountSeries(st.Times())
	i := 0
	err = st.EachRow(context.Background(), func(r dataset.Row) error {
		for !series.Dates[i].Equal(r.Date) {
			i++ // rows arrive in date order
		}
		series.Add(r.IP.Slash24(), i, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}
