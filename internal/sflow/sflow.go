// Package sflow implements the sFlow version 5 datagram format (flow
// samples with raw packet headers) — the other export protocol major
// IXPs run besides IPFIX. Where IPFIX ships pre-aggregated flow records,
// sFlow ships sampled raw packet headers; the booterscope pipeline
// decodes them with the packet codec and rebuilds flows, exercising the
// full capture path a production sFlow collector uses.
package sflow //bsvet:allow deadcode no production caller since PlatformExportSFlow went; kept for its 11 tests (deletion deferred, ROADMAP 8(iv))

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"booterscope/internal/netutil"
	"booterscope/internal/packet"
)

// Protocol constants.
const (
	Version = 5

	addrTypeIPv4 = 1

	sampleTypeFlow = 1

	recordTypeRawHeader = 1

	// headerProtocolIPv4 marks a raw header that starts at the IP layer
	// (sFlow header_protocol 11 = IPv4).
	headerProtocolIPv4 = 11

	// MaxHeaderBytes is the default header snippet length exported per
	// sampled packet.
	MaxHeaderBytes = 128
)

// Codec errors.
var (
	ErrBadVersion = errors.New("sflow: unsupported version")
	ErrTruncated  = errors.New("sflow: truncated datagram")
	ErrBadSample  = errors.New("sflow: malformed sample")
)

// Sample is one sampled packet: its raw header plus sampling metadata.
type Sample struct {
	// SamplingRate is the 1-in-N rate of the exporting port.
	SamplingRate uint32
	// SamplePool counts packets that could have been sampled.
	SamplePool uint32
	// FrameLength is the original packet length on the wire.
	FrameLength uint32
	// Header is the truncated raw header (IPv4 and up).
	Header []byte
}

// Datagram is one sFlow export datagram.
type Datagram struct {
	Agent      netip.Addr
	SubAgentID uint32
	Sequence   uint32
	Uptime     time.Duration
	Samples    []Sample
}

// Exporter encodes sampled packets into sFlow datagrams.
type Exporter struct {
	// Agent identifies the exporting device.
	Agent netip.Addr
	// SubAgentID distinguishes export processes.
	SubAgentID uint32
	// BootTime anchors the uptime field.
	BootTime time.Time

	seq       uint32
	sampleSeq uint32
}

// Encode builds one datagram carrying the samples.
func (e *Exporter) Encode(samples []Sample, now time.Time) ([]byte, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("sflow: no samples to encode")
	}
	agent := e.Agent
	if !agent.Is4() {
		agent = netip.MustParseAddr("127.0.0.1")
	}
	b := make([]byte, 0, 64+len(samples)*(44+MaxHeaderBytes))
	b = binary.BigEndian.AppendUint32(b, Version)
	b = binary.BigEndian.AppendUint32(b, addrTypeIPv4)
	a4 := agent.As4()
	b = append(b, a4[:]...)
	b = binary.BigEndian.AppendUint32(b, e.SubAgentID)
	b = binary.BigEndian.AppendUint32(b, e.seq)
	e.seq++
	b = binary.BigEndian.AppendUint32(b, uint32(now.Sub(e.BootTime)/time.Millisecond))
	b = binary.BigEndian.AppendUint32(b, uint32(len(samples)))

	for _, s := range samples {
		hdr := s.Header
		if len(hdr) > MaxHeaderBytes {
			hdr = hdr[:MaxHeaderBytes]
		}
		pad := (4 - len(hdr)%4) % 4

		// Raw packet header record.
		recLen := 16 + len(hdr) + pad
		// Flow sample body: seq, sourceID, rate, pool, drops, input,
		// output, nrecords + one record.
		bodyLen := 32 + 8 + recLen

		b = binary.BigEndian.AppendUint32(b, sampleTypeFlow)
		b = binary.BigEndian.AppendUint32(b, uint32(bodyLen))
		b = binary.BigEndian.AppendUint32(b, e.sampleSeq)
		e.sampleSeq++
		b = binary.BigEndian.AppendUint32(b, 0) // source id
		b = binary.BigEndian.AppendUint32(b, s.SamplingRate)
		b = binary.BigEndian.AppendUint32(b, s.SamplePool)
		b = binary.BigEndian.AppendUint32(b, 0) // drops
		b = binary.BigEndian.AppendUint32(b, 1) // input ifindex
		b = binary.BigEndian.AppendUint32(b, 2) // output ifindex
		b = binary.BigEndian.AppendUint32(b, 1) // record count

		b = binary.BigEndian.AppendUint32(b, recordTypeRawHeader)
		b = binary.BigEndian.AppendUint32(b, uint32(recLen))
		b = binary.BigEndian.AppendUint32(b, headerProtocolIPv4)
		b = binary.BigEndian.AppendUint32(b, s.FrameLength)
		b = binary.BigEndian.AppendUint32(b, 0) // stripped
		b = binary.BigEndian.AppendUint32(b, uint32(len(hdr)))
		b = append(b, hdr...)
		b = append(b, make([]byte, pad)...)
	}
	return b, nil
}

// Decode parses one sFlow datagram.
func Decode(b []byte) (*Datagram, error) {
	if len(b) < 28 {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint32(b) != Version {
		return nil, ErrBadVersion
	}
	if binary.BigEndian.Uint32(b[4:]) != addrTypeIPv4 {
		return nil, fmt.Errorf("%w: non-IPv4 agent", ErrBadSample)
	}
	d := &Datagram{
		Agent:      netip.AddrFrom4([4]byte(b[8:12])),
		SubAgentID: binary.BigEndian.Uint32(b[12:]),
		Sequence:   binary.BigEndian.Uint32(b[16:]),
		Uptime:     time.Duration(binary.BigEndian.Uint32(b[20:])) * time.Millisecond,
	}
	n := int(binary.BigEndian.Uint32(b[24:]))
	off := 28
	for i := 0; i < n; i++ {
		if off+8 > len(b) {
			return nil, ErrTruncated
		}
		sampleType := binary.BigEndian.Uint32(b[off:])
		sampleLen := int(binary.BigEndian.Uint32(b[off+4:]))
		off += 8
		if sampleLen < 0 || off+sampleLen > len(b) {
			return nil, ErrTruncated
		}
		body := b[off : off+sampleLen]
		off += sampleLen
		if sampleType != sampleTypeFlow {
			continue // counter samples etc. are skipped
		}
		sample, err := decodeFlowSample(body)
		if err != nil {
			return nil, err
		}
		if sample != nil {
			d.Samples = append(d.Samples, *sample)
		}
	}
	return d, nil
}

// decodeFlowSample parses one flow sample body, returning nil when the
// sample carries no raw header record.
func decodeFlowSample(b []byte) (*Sample, error) {
	if len(b) < 32 {
		return nil, ErrBadSample
	}
	s := Sample{
		SamplingRate: binary.BigEndian.Uint32(b[8:]),
		SamplePool:   binary.BigEndian.Uint32(b[12:]),
	}
	records := int(binary.BigEndian.Uint32(b[28:]))
	off := 32
	for r := 0; r < records; r++ {
		if off+8 > len(b) {
			return nil, ErrBadSample
		}
		recType := binary.BigEndian.Uint32(b[off:])
		recLen := int(binary.BigEndian.Uint32(b[off+4:]))
		off += 8
		if recLen < 0 || off+recLen > len(b) {
			return nil, ErrBadSample
		}
		rec := b[off : off+recLen]
		off += recLen
		if recType != recordTypeRawHeader || len(rec) < 16 {
			continue
		}
		if binary.BigEndian.Uint32(rec) != headerProtocolIPv4 {
			continue
		}
		s.FrameLength = binary.BigEndian.Uint32(rec[4:])
		hdrLen := int(binary.BigEndian.Uint32(rec[12:]))
		if hdrLen < 0 || 16+hdrLen > len(rec) {
			return nil, ErrBadSample
		}
		s.Header = append([]byte(nil), rec[16:16+hdrLen]...)
	}
	if s.Header == nil {
		return nil, nil
	}
	return &s, nil
}

// SamplePackets turns raw IPv4 packets into sFlow samples at a 1-in-rate
// systematic pace, exactly like a switch ASIC: every rate-th packet's
// header is exported.
func SamplePackets(packets [][]byte, rate uint32) []Sample {
	if rate == 0 {
		rate = 1
	}
	var out []Sample
	for i, pkt := range packets {
		if uint32(i)%rate != 0 {
			continue
		}
		hdr := pkt
		if len(hdr) > MaxHeaderBytes {
			hdr = hdr[:MaxHeaderBytes]
		}
		out = append(out, Sample{
			SamplingRate: rate,
			SamplePool:   uint32(i + 1),
			FrameLength:  uint32(len(pkt)),
			Header:       append([]byte(nil), hdr...),
		})
	}
	return out
}

// ToFlowSeconds decodes every sample's header and returns per-sample
// decoded packets with scale-up info, ready for flow building. Samples
// whose headers fail to parse are skipped (truncation can cut into the
// transport header).
func (d *Datagram) DecodedPackets() []DecodedSample {
	var out []DecodedSample
	for _, s := range d.Samples {
		pkt, err := packet.DecodeIPv4(s.Header)
		if err != nil {
			continue
		}
		out = append(out, DecodedSample{
			Packet:       pkt,
			SamplingRate: s.SamplingRate,
			FrameLength:  s.FrameLength,
		})
	}
	return out
}

// DecodedSample pairs a parsed header with its sampling metadata.
type DecodedSample struct {
	Packet       *packet.Decoded
	SamplingRate uint32
	FrameLength  uint32
}

// EstimatedBytes scales the frame length up by the sampling rate.
func (d DecodedSample) EstimatedBytes() uint64 {
	return uint64(d.FrameLength) * uint64(d.SamplingRate)
}

// Bitrate estimates the traffic rate represented by a set of samples
// observed over the given duration.
func Bitrate(samples []DecodedSample, over time.Duration) netutil.Bitrate {
	var bytes uint64
	for _, s := range samples {
		bytes += s.EstimatedBytes()
	}
	return netutil.RateFromBytes(bytes, over.Seconds())
}
