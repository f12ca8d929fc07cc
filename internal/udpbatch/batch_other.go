//go:build !(linux && (amd64 || arm64))

package udpbatch

import "net"

// Conn is a batch of one datagram per system call on the platforms without
// the recvmmsg/sendmmsg path: the same contract, a call per datagram.
type Conn struct {
	conn *net.UDPConn
}

// New returns a Conn over conn.
func New(conn *net.UDPConn, size int) (*Conn, error) {
	return &Conn{conn: conn}, nil
}

// ReadBatch reads one datagram into ms[0], waiting for it.
func (c *Conn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := c.conn.ReadFromUDPAddrPort(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N, ms[0].Addr = n, addr
	return 1, nil
}

// WriteBatch sends every message in turn, stopping at the first that
// fails: it returns how many went out.
func (c *Conn) WriteBatch(ms []Message) (int, error) {
	for i, m := range ms {
		var err error
		if m.Addr.IsValid() {
			_, err = c.conn.WriteToUDPAddrPort(m.Buf, m.Addr)
		} else {
			_, err = c.conn.Write(m.Buf)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ms), nil
}
