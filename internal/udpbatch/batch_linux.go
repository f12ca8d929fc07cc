//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Conn moves up to its size of datagrams per recvmmsg or sendmmsg through
// one UDP socket. It holds the calls' working memory, so one goroutine at a
// time may use it; the socket's own methods stay usable beside it.
type Conn struct {
	raw   syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []sockaddr

	// The call in flight, shared with recv and send: its first n headers,
	// done of them through, and the errno that ended it.
	n, done int
	errno   syscall.Errno
	// recv and send are the RawConn callbacks, built once in New so that a
	// call allocates no closure.
	recv, send func(fd uintptr) bool
}

// mmsghdr is struct mmsghdr: a message's header and the length the kernel
// moved. The padding is the 64-bit layout's, which is every architecture
// this file builds for.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sockaddr is a struct sockaddr_in6, which a struct sockaddr_in fits in:
// the family, the port in network order, then the rest. A sockaddr_in keeps
// its address in rest[0:4]; a sockaddr_in6 its flow label there, its
// address in rest[4:20] and its scope in rest[20:24].
type sockaddr struct {
	family uint16
	port   [2]byte
	rest   [24]byte
}

// New returns a Conn that moves up to size datagrams per call over conn.
func New(conn *net.UDPConn, size int) (*Conn, error) {
	raw, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &Conn{
		raw:   raw,
		hdrs:  make([]mmsghdr, size),
		iovs:  make([]syscall.Iovec, size),
		names: make([]sockaddr, size),
	}
	for i := range c.hdrs {
		c.hdrs[i].hdr.Iov = &c.iovs[i]
		c.hdrs[i].hdr.Iovlen = 1
	}
	// recvmmsg takes what is queued, up to n, and returns; sendmmsg may
	// stop short on a full send buffer, and then resumes where it stopped
	// once the poller says the socket is writable.
	c.recv = func(fd uintptr) bool {
		for {
			r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&c.hdrs[0])), uintptr(c.n), 0, 0, 0)
			switch e {
			case 0:
				c.done = int(r)
				return true
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false
			default:
				c.errno = e
				return true
			}
		}
	}
	c.send = func(fd uintptr) bool {
		for c.done < c.n {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&c.hdrs[c.done])), uintptr(c.n-c.done), 0, 0, 0)
			switch e {
			case 0:
				c.done += int(r)
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false
			default:
				c.errno = e
				return true
			}
		}
		return true
	}
	return c, nil
}

// ReadBatch waits for at least one datagram, then reads as many as are
// queued, up to len(ms) and the Conn's size, one into each message's Buf,
// and returns how many it read.
func (c *Conn) ReadBatch(ms []Message) (int, error) {
	n := min(len(ms), len(c.hdrs))
	if n == 0 {
		return 0, nil
	}
	for i := range n {
		c.setBuf(i, ms[i].Buf)
		h := &c.hdrs[i].hdr
		h.Name, h.Namelen = (*byte)(unsafe.Pointer(&c.names[i])), syscall.SizeofSockaddrInet6
	}
	c.n, c.done, c.errno = n, 0, 0
	if err := c.raw.Read(c.recv); err != nil {
		return 0, err
	}
	if c.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", c.errno)
	}
	for i := range c.done {
		ms[i].N = min(int(c.hdrs[i].n), len(ms[i].Buf))
		ms[i].Addr = c.names[i].addrPort()
	}
	return c.done, nil
}

// WriteBatch sends every message, as many per sendmmsg as the Conn's size
// allows, and returns how many went out: all of them, or those before the
// one that failed.
func (c *Conn) WriteBatch(ms []Message) (int, error) {
	sent := 0
	for sent < len(ms) {
		n := min(len(ms)-sent, len(c.hdrs))
		for i := range n {
			m := &ms[sent+i]
			c.setBuf(i, m.Buf)
			h := &c.hdrs[i].hdr
			h.Name, h.Namelen = nil, 0
			if m.Addr.IsValid() {
				h.Name, h.Namelen = (*byte)(unsafe.Pointer(&c.names[i])), c.names[i].set(m.Addr)
			}
		}
		c.n, c.done, c.errno = n, 0, 0
		err := c.raw.Write(c.send)
		sent += c.done
		if err == nil && c.errno != 0 {
			err = os.NewSyscallError("sendmmsg", c.errno)
		}
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// setBuf points message i's I/O vector at b.
func (c *Conn) setBuf(i int, b []byte) {
	c.iovs[i].Base = unsafe.SliceData(b)
	c.iovs[i].SetLen(len(b))
}

// addrPort decodes the address recvmmsg wrote.
func (sa *sockaddr) addrPort() netip.AddrPort {
	port := binary.BigEndian.Uint16(sa.port[:])
	switch sa.family {
	case syscall.AF_INET:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(sa.rest[0:4])), port)
	case syscall.AF_INET6:
		a := netip.AddrFrom16([16]byte(sa.rest[4:20]))
		if scope := binary.NativeEndian.Uint32(sa.rest[20:24]); scope != 0 {
			a = a.WithZone(strconv.FormatUint(uint64(scope), 10))
		}
		return netip.AddrPortFrom(a, port)
	}
	return netip.AddrPort{}
}

// set encodes ap and returns the encoding's length. An IPv4 peer, mapped
// or not, is a sockaddr_in, which Linux sends from an IPv6 socket too
// unless it is IPv6-only; an IPv6 peer on an IPv4 socket is the kernel's
// EAFNOSUPPORT.
func (sa *sockaddr) set(ap netip.AddrPort) uint32 {
	*sa = sockaddr{}
	binary.BigEndian.PutUint16(sa.port[:], ap.Port())
	if a := ap.Addr().Unmap(); a.Is4() {
		sa.family = syscall.AF_INET
		a4 := a.As4()
		copy(sa.rest[0:4], a4[:])
		return syscall.SizeofSockaddrInet4
	}
	sa.family = syscall.AF_INET6
	a16 := ap.Addr().As16()
	copy(sa.rest[4:20], a16[:])
	// The zone is the scope number addrPort wrote; none is no scope.
	scope, _ := strconv.ParseUint(ap.Addr().Zone(), 10, 32)
	binary.NativeEndian.PutUint32(sa.rest[20:24], uint32(scope))
	return syscall.SizeofSockaddrInet6
}
