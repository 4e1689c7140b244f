// Package pcap reads and writes libpcap capture files (the classic
// tcpdump format, magic 0xa1b2c3d4). The booterscope observatory stores
// self-attack captures in this format so they can be inspected with
// standard tools.
//
// Only the original microsecond-resolution, fixed-endianness file layout
// is implemented; both byte orders are accepted on read.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// LinkType identifies the data link layer of captured packets.
type LinkType uint32

// Link types used by booterscope captures.
const (
	//bsvet:allow deadcode oracle: TestLittleEndianRead and TestSnapLenTruncation check the link type Writer records
	LinkTypeEthernet LinkType = 1
	LinkTypeRaw      LinkType = 101 // raw IP, no link header
)

const (
	magicLE       = 0xd4c3b2a1 // on-disk little-endian magic as read big-endian
	magicBE       = 0xa1b2c3d4
	versionMajor  = 2
	versionMinor  = 4
	fileHeaderLen = 24
	recHeaderLen  = 16
)

// Errors returned by the reader.
var (
	errBadMagic = errors.New("pcap: bad magic number")
	errSnapped  = errors.New("pcap: packet exceeds snap length")
)

// header describes one captured packet.
type header struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// CaptureLength is the number of bytes stored in the file.
	CaptureLength int
	// OriginalLength is the packet's length on the wire.
	OriginalLength int
}

// Writer writes packets to a pcap stream. Create one with NewWriter.
type Writer struct {
	w       io.Writer
	snapLen int
	scratch [recHeaderLen]byte
}

// NewWriter writes a pcap file header to w and returns a Writer. snapLen
// is the maximum number of bytes stored per packet; 0 selects 65535.
func NewWriter(w io.Writer, link LinkType, snapLen int) (*Writer, error) {
	if snapLen <= 0 {
		snapLen = 65535
	}
	var hdr [fileHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], magicBE)
	binary.BigEndian.PutUint16(hdr[4:], versionMajor)
	binary.BigEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs stay zero
	binary.BigEndian.PutUint32(hdr[16:], uint32(snapLen))
	binary.BigEndian.PutUint32(hdr[20:], uint32(link))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing file header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// WritePacket stores one packet. data longer than the snap length is
// truncated; the original length is preserved in the record header.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	origLen := len(data)
	if origLen > w.snapLen {
		data = data[:w.snapLen]
	}
	binary.BigEndian.PutUint32(w.scratch[0:], uint32(ts.Unix()))
	binary.BigEndian.PutUint32(w.scratch[4:], uint32(ts.Nanosecond()/1000))
	binary.BigEndian.PutUint32(w.scratch[8:], uint32(len(data)))
	binary.BigEndian.PutUint32(w.scratch[12:], uint32(origLen))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// reader reads packets from a pcap stream. Create one with NewReader.
type reader struct {
	r       io.Reader
	order   binary.ByteOrder
	link    LinkType
	snapLen int
	scratch [recHeaderLen]byte
}

// NewReader parses the file header from r and returns a Reader.
//
//bsvet:allow deadcode oracle: TestWriteReadRoundTrip and TestCaptureProducesValidPcap read back what Writer writes
func NewReader(r io.Reader) (*reader, error) {
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.BigEndian.Uint32(hdr[0:]) {
	case magicBE:
		order = binary.BigEndian
	case magicLE:
		order = binary.LittleEndian
	default:
		return nil, errBadMagic
	}
	return &reader{
		r:       r,
		order:   order,
		link:    LinkType(order.Uint32(hdr[20:])),
		snapLen: int(order.Uint32(hdr[16:])),
	}, nil
}

// LinkType reports the capture's link layer.
//
//bsvet:allow deadcode oracle: TestWriteReadRoundTrip reads back what Writer writes
func (r *reader) LinkType() LinkType { return r.link }

// SnapLen reports the capture's snap length.
//
//bsvet:allow deadcode oracle: TestWriteReadRoundTrip reads back what Writer writes
func (r *reader) SnapLen() int { return r.snapLen }

// Next returns the next packet. It returns io.EOF cleanly at end of file.
// The returned data slice is freshly allocated and owned by the caller.
//
//bsvet:allow deadcode oracle: TestWriteReadRoundTrip and TestCaptureProducesValidPcap read back what Writer writes
func (r *reader) Next() (header, []byte, error) {
	if _, err := io.ReadFull(r.r, r.scratch[:]); err != nil {
		if err == io.EOF {
			return header{}, nil, io.EOF
		}
		return header{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := r.order.Uint32(r.scratch[0:])
	usec := r.order.Uint32(r.scratch[4:])
	capLen := int(r.order.Uint32(r.scratch[8:]))
	origLen := int(r.order.Uint32(r.scratch[12:]))
	if capLen > r.snapLen {
		return header{}, nil, errSnapped
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return header{}, nil, fmt.Errorf("pcap: reading record data: %w", err)
	}
	h := header{
		Timestamp:      time.Unix(int64(sec), int64(usec)*1000).UTC(),
		CaptureLength:  capLen,
		OriginalLength: origLen,
	}
	return h, data, nil
}
