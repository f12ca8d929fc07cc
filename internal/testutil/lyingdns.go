package testutil

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Lie is one way the lying name server misbehaves towards a query.
type Lie int

// The lies. Each is told to one UDP datagram; what a client is documented
// to do about it is in the comment.
const (
	// Honest: the true answer.
	Honest Lie = iota
	// Silent: no answer. The client times out or retransmits.
	Silent
	// WrongID: the true answer under an ID the client did not send. Skipped.
	WrongID
	// WrongQuestion: the client's ID on the true answer to the decoy
	// query. Attributable, and not an answer to what was asked: malformed.
	WrongQuestion
	// EchoQuery: the query sent straight back, QR still clear. Skipped.
	EchoQuery
	// LateDuplicate: the previous datagram's answer once more, then the
	// true answer. The duplicate is skipped.
	LateDuplicate
	// OtherSource: the true answer, sent from a second socket. A connected
	// client never sees it.
	OtherSource
	// Runt: the first five octets of the true answer. Attributable by its
	// ID and unparsable: malformed.
	Runt
	// Oversized: the true answer's header on more than 4096 octets of
	// records that run out before their count does. Malformed.
	Oversized
	// Reversed: the true answer, held back; a run of Reversed queries is
	// answered newest first once the script's next lie is something else.
	Reversed
	// Truncated: TC set and the answer section cut. The client asks again
	// over TCP.
	Truncated
)

// LyingDNS is a scripted name server on loopback UDP and TCP (one port) for
// testing DNS clients against a peer that lies. It holds no DNS knowledge:
// the truth comes from Answer, and the lies are made of those bytes.
type LyingDNS struct {
	// Answer returns the true reply to a wire query, nil for none.
	Answer func(query []byte, tcp bool) []byte
	// Script picks the lie told to the i-th UDP datagram received (from
	// 0). Nil is all Honest. It must be a pure function of i.
	Script func(i int) Lie
	// Decoy is the wire query whose true answer WrongQuestion sends.
	Decoy []byte
	// TruncateTCP makes every TCP reply carry TC with its answers cut: a
	// truncation that never clears.
	TruncateTCP bool
	// Seed varies the wrong IDs.
	Seed int64

	udp, other net.PacketConn
	tcp        net.Listener
	wg         sync.WaitGroup

	datagrams, streams atomic.Int32
}

// Script returns a script that tells lies[i] to datagram i and is honest
// once they run out.
func Script(lies ...Lie) func(int) Lie {
	return func(i int) Lie {
		if i < len(lies) {
			return lies[i]
		}
		return Honest
	}
}

// RandomLies returns a script that picks each datagram's lie from lies by a
// hash of (seed, i): the same seed tells the same lies in any arrival order.
func RandomLies(seed int64, lies ...Lie) func(int) Lie {
	return func(i int) Lie {
		x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return lies[x%uint64(len(lies))]
	}
}

// Start binds the sockets and serves until Close.
func (l *LyingDNS) Start() (err error) {
	if l.udp, err = net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
		l.other, err = net.ListenPacket("udp", "127.0.0.1:0")
	}
	if err == nil {
		l.tcp, err = net.Listen("tcp", l.udp.LocalAddr().String())
	}
	if err != nil {
		l.Close()
		return err
	}
	l.wg.Add(2)
	go l.serveUDP()
	go l.serveTCP()
	return nil
}

// Addr is the "host:port" the server answers on, UDP and TCP alike.
func (l *LyingDNS) Addr() string { return l.udp.LocalAddr().String() }

// Close stops the server and waits for its goroutines.
func (l *LyingDNS) Close() {
	for _, c := range []io.Closer{l.udp, l.other, l.tcp} {
		if c != nil { // a Start that failed part-way
			c.Close()
		}
	}
	l.wg.Wait()
}

// Datagrams and Streams count the UDP queries and TCP connections seen.
func (l *LyingDNS) Datagrams() int { return int(l.datagrams.Load()) }
func (l *LyingDNS) Streams() int   { return int(l.streams.Load()) }

func (l *LyingDNS) lie(i int) Lie {
	if l.Script == nil {
		return Honest
	}
	return l.Script(i)
}

func (l *LyingDNS) serveUDP() {
	defer l.wg.Done()
	type held struct {
		reply []byte
		to    net.Addr
	}
	var (
		buf      = make([]byte, 4096)
		previous []byte // the last true answer sent
		stack    []held // Reversed answers waiting
	)
	for i := 0; ; i++ {
		n, from, err := l.udp.ReadFrom(buf)
		if err != nil {
			return
		}
		l.datagrams.Add(1)
		query := append([]byte(nil), buf[:n]...)
		truth := l.Answer(query, false)
		send := func(b []byte) {
			if b != nil {
				l.udp.WriteTo(b, from)
			}
		}
		switch l.lie(i) {
		case Honest:
			send(truth)
		case Silent:
		case WrongID:
			if len(truth) >= 2 {
				wrong := append([]byte(nil), truth...)
				// Any ID but the one asked: add a seeded non-zero offset.
				off := uint16(uint64(l.Seed)+uint64(i))%0xFFFF + 1
				binary.BigEndian.PutUint16(wrong, binary.BigEndian.Uint16(truth)+off)
				send(wrong)
			}
		case WrongQuestion:
			if other := l.Answer(l.Decoy, false); len(other) >= 2 && n >= 2 {
				other = append([]byte(nil), other...)
				copy(other[:2], query[:2])
				send(other)
			}
		case EchoQuery:
			send(query)
		case LateDuplicate:
			send(previous)
			send(truth)
		case OtherSource:
			if truth != nil {
				l.other.WriteTo(truth, from)
			}
		case Runt:
			if len(truth) >= 5 {
				send(truth[:5])
			}
		case Oversized:
			if len(truth) >= 12 {
				big := make([]byte, 5000)
				copy(big, truth)
				binary.BigEndian.PutUint16(big[10:], 0xFFFF) // ARCOUNT
				send(big)
			}
		case Reversed:
			if truth != nil {
				stack = append(stack, held{truth, from})
			}
		case Truncated:
			send(truncate(truth))
		}
		if truth != nil {
			previous = truth
		}
		if l.lie(i+1) != Reversed {
			for k := len(stack) - 1; k >= 0; k-- {
				l.udp.WriteTo(stack[k].reply, stack[k].to)
			}
			stack = stack[:0]
		}
	}
}

func (l *LyingDNS) serveTCP() {
	defer l.wg.Done()
	for {
		conn, err := l.tcp.Accept()
		if err != nil {
			return
		}
		l.streams.Add(1)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer conn.Close()
			for {
				query, err := readFrame(conn)
				if err != nil {
					return
				}
				reply := l.Answer(query, true)
				if l.TruncateTCP {
					reply = truncate(reply)
				}
				if reply == nil {
					return
				}
				frame := binary.BigEndian.AppendUint16(nil, uint16(len(reply)))
				if _, err := conn.Write(append(frame, reply...)); err != nil {
					return
				}
			}
		}()
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if len(msg) == 0 {
		return nil, errors.New("testutil: zero-length frame")
	}
	_, err := io.ReadFull(r, msg)
	return msg, err
}

// truncate returns reply as a server that ran out of room would send it:
// TC set, everything after the question section gone. Nil if reply is not a
// one-question message.
func truncate(reply []byte) []byte {
	if len(reply) < 12 || binary.BigEndian.Uint16(reply[4:]) != 1 {
		return nil
	}
	off := 12
	for off < len(reply) && reply[off] != 0 {
		off += 1 + int(reply[off]) // uncompressed labels: the first name of a message
	}
	off += 1 + 4 // root label, type, class
	if off > len(reply) {
		return nil
	}
	cut := append([]byte(nil), reply[:off]...)
	cut[2] |= 0x02 // TC
	clear(cut[6:12])
	return cut
}
