package xkernel

// Transport is the datagram service the driver bridges to: the simulated
// network (internal/netsim) and the real-UDP transport both implement it.
// Receive callbacks must be delivered serially on the protocol graph's
// executor (the clock event loop), never from inside Send.
//
// Buffers are lent, not given. Send must not retain payload after it
// returns: the stack reuses one outbound message per sender. A receiver's
// payload is valid only during the callback: the transport may reuse it
// once the callback returns, so a layer that keeps bytes copies them.
type Transport interface {
	// Send transmits payload to the named host. Delivery is unreliable
	// and unordered, like UDP.
	Send(to string, payload []byte) error
	// SetReceiver registers the inbound datagram callback.
	SetReceiver(fn func(from string, payload []byte))
	// LocalAddr reports this endpoint's host name.
	LocalAddr() string
	// Close releases the endpoint.
	Close() error
}

// driver is the bottom of the stack: it moves whole messages between the
// layer above it and a Transport. It adds no header.
type driver struct {
	tr Transport
	up func(m *Message, from Addr) error // the fragmenter's demux, or the port's
	in Message                           // every inbound datagram: receives are serial
}

func (d *driver) push(host string, m *Message) error { return d.tr.Send(host, m.Bytes()) }

// receive is the Transport's receive callback. A datagram the layers above
// reject is dropped, as a NIC would.
func (d *driver) receive(from string, payload []byte) {
	d.in = Message{buf: payload}
	_ = d.up(&d.in, Addr(from))
}
