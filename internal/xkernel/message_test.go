package xkernel

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMessagePushPop(t *testing.T) {
	m := NewMessage([]byte("payload"))
	m.Push([]byte("hdr2"))
	m.Push([]byte("h1"))
	if got := string(m.Bytes()); got != "h1hdr2payload" {
		t.Fatalf("Bytes() = %q", got)
	}
	h, err := m.Pop(2)
	if err != nil || string(h) != "h1" {
		t.Fatalf("Pop(2) = %q, %v", h, err)
	}
	h, err = m.Pop(4)
	if err != nil || string(h) != "hdr2" {
		t.Fatalf("Pop(4) = %q, %v", h, err)
	}
	if got := string(m.Bytes()); got != "payload" {
		t.Fatalf("after pops Bytes() = %q", got)
	}
}

func TestMessagePopTooLong(t *testing.T) {
	m := NewMessage([]byte("abc"))
	if _, err := m.Pop(4); err != ErrShortMessage {
		t.Fatalf("Pop(4) err = %v, want ErrShortMessage", err)
	}
	if _, err := m.Pop(-1); err != ErrShortMessage {
		t.Fatalf("Pop(-1) err = %v, want ErrShortMessage", err)
	}
}

func TestMessagePushGrowsBeyondHeadroom(t *testing.T) {
	m := NewMessage([]byte("p"))
	big := bytes.Repeat([]byte{0xAA}, 500)
	m.Push(big)
	if m.Len() != 501 {
		t.Fatalf("Len() = %d, want 501", m.Len())
	}
	h, err := m.Pop(500)
	if err != nil || !bytes.Equal(h, big) {
		t.Fatalf("big header did not survive push: %v", err)
	}
	if string(m.Bytes()) != "p" {
		t.Fatalf("payload corrupted: %q", m.Bytes())
	}
}

func TestMessagePushPopRoundTripProperty(t *testing.T) {
	f := func(payload []byte, headers [][]byte) bool {
		m := NewMessage(payload)
		for _, h := range headers {
			m.Push(h)
		}
		for i := len(headers) - 1; i >= 0; i-- {
			got, err := m.Pop(len(headers[i]))
			if err != nil || !bytes.Equal(got, headers[i]) {
				return false
			}
		}
		return bytes.Equal(m.Bytes(), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromWire(t *testing.T) {
	m := FromWire([]byte("raw"))
	if string(m.Bytes()) != "raw" || m.Len() != 3 {
		t.Fatalf("FromWire contents = %q", m.Bytes())
	}
}
