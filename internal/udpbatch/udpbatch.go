// Package udpbatch moves batches of datagrams through one *net.UDPConn per
// system call: recvmmsg(2) and sendmmsg(2) on linux/amd64 and linux/arm64,
// one datagram per call everywhere else. On loopback a datagram's syscall
// costs more than the DNS work around it, so a name server that drains a
// burst of queries, and answers it, in one call each spends its core on
// the answers instead.
//
// A Conn owns the working memory of its calls — message headers, I/O
// vectors and socket addresses, allocated once in New — and the calls go
// through the socket's syscall.RawConn, so the runtime's poller still
// parks a caller that must wait, and the socket's deadlines and Close
// still end the wait. A call allocates nothing.
package udpbatch

import "net/netip"

// Message is one datagram of a batch.
type Message struct {
	// Buf is, to ReadBatch, the buffer the datagram is read into — a longer
	// datagram is cut to its length — and, to WriteBatch, the datagram.
	Buf []byte
	// Addr is the peer: the sender, after ReadBatch; the destination, for
	// WriteBatch, where the zero AddrPort sends on a connected socket.
	Addr netip.AddrPort
	// N is how many octets of Buf ReadBatch filled.
	N int
}
