package rdnsserve

import (
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
)

// The paged shapes as the store returns them. A handler hands render the
// store's own rows and render appends them through the contract's Encoder,
// so no address, prefix or name of a row becomes a string, and no
// []rdnsclient.RangeRow is built, on the way to the wire. The bytes are the
// ones rdnsclient.RangeResponse, ChurnResponse and NameResponse marshal to
// (TestBodiesAreWhatEncodingJSONWrites; rdnsclient's
// TestEncoderTypedRowsMatchText).

type rangeBody struct {
	prefix   string
	from, to time.Time
	rows     []dataset.Row
	next     string
}

func (b *rangeBody) AppendJSON(dst []byte) []byte {
	var e rdnsclient.Encoder
	e.BeginRange(dst, b.prefix, b.from, b.to, len(b.rows))
	for i := range b.rows {
		row := &b.rows[i]
		e.RangeRowIPv4(row.Date, row.IP, string(row.PTR))
	}
	return e.EndRange(b.next)
}

type churnBody struct {
	prefix   string
	from, to time.Time
	days     []histstore.ChurnDay
}

func (b *churnBody) AppendJSON(dst []byte) []byte {
	var e rdnsclient.Encoder
	e.BeginChurn(dst, b.prefix, b.from, b.to)
	for i := range b.days {
		d := &b.days[i]
		e.ChurnDay(d.Date, d.Added, d.Removed, d.Changed)
	}
	return e.EndChurn()
}

type nameBody struct {
	token    string
	postings []histstore.Posting // this page's
	next     string
}

func (b *nameBody) AppendJSON(dst []byte) []byte {
	var e rdnsclient.Encoder
	e.BeginName(dst, b.token, len(b.postings))
	for i := range b.postings {
		p := &b.postings[i]
		e.NamePostingPrefix(p.Prefix.Addr, p.Prefix.Bits, p.First, p.Last)
	}
	return e.EndName(b.next)
}
