package amplify

import (
	"errors"

	"booterscope/internal/netutil"
)

// cldapSearch is the connectionless LDAP (CLDAP, RFC 3352) amplification
// vector. A small rootDSE searchRequest elicits a searchResEntry carrying
// the directory's advertised attributes — several kilobytes from Active
// Directory servers.
//
// The LDAP messages are encoded with a minimal BER (definite-length)
// subset: SEQUENCE, OCTET STRING, INTEGER, ENUMERATED, and the
// LDAP-specific application tags.
type cldapSearch struct{}

// BER universal tags and LDAP application tags used here.
const (
	berSequence    = 0x30
	berSet         = 0x31
	berOctetString = 0x04
	berInteger     = 0x02
	berEnumerated  = 0x0a
	berBoolean     = 0x01

	ldapAppSearchRequest  = 0x63 // [APPLICATION 3] constructed
	ldapAppSearchResEntry = 0x64 // [APPLICATION 4] constructed
	ldapAppSearchResDone  = 0x65 // [APPLICATION 5] constructed
	ldapFilterPresent     = 0x87 // [CONTEXT 7] primitive
)

// berLen appends a BER definite length.
func berLen(b []byte, n int) []byte {
	switch {
	case n < 0x80:
		return append(b, byte(n))
	case n < 0x100:
		return append(b, 0x81, byte(n))
	default:
		return append(b, 0x82, byte(n>>8), byte(n))
	}
}

// berTLV appends tag, length, and value.
func berTLV(b []byte, tag byte, value []byte) []byte {
	b = append(b, tag)
	b = berLen(b, len(value))
	return append(b, value...)
}

// berInt appends a small non-negative INTEGER.
func berInt(b []byte, tag byte, v int) []byte {
	if v < 0x80 {
		return append(b, tag, 1, byte(v))
	}
	return append(b, tag, 2, byte(v>>8), byte(v))
}

// parseTLV reads one BER TLV at off, returning tag, value bounds, and the
// offset past the element.
func parseTLV(b []byte, off int) (tag byte, valStart, valEnd, next int, err error) {
	if off+2 > len(b) {
		return 0, 0, 0, 0, errCLDAPTruncated
	}
	tag = b[off]
	l := int(b[off+1])
	hdr := 2
	if l&0x80 != 0 {
		nBytes := l & 0x7f
		if nBytes == 0 || nBytes > 2 || off+2+nBytes > len(b) {
			return 0, 0, 0, 0, errCLDAPTruncated
		}
		l = 0
		for i := 0; i < nBytes; i++ {
			l = l<<8 | int(b[off+2+i])
		}
		hdr = 2 + nBytes
	}
	valStart = off + hdr
	valEnd = valStart + l
	if valEnd > len(b) {
		return 0, 0, 0, 0, errCLDAPTruncated
	}
	return tag, valStart, valEnd, valEnd, nil
}

var errCLDAPTruncated = errors.New("amplify: truncated CLDAP message")

// cldapRequestInfo summarizes a decoded CLDAP searchRequest.
type cldapRequestInfo struct {
	MessageID int
	BaseDN    string
	Attribute string // the "present" filter attribute, e.g. objectClass
}

// decodeCLDAPRequest parses the searchRequest this package emits.
func decodeCLDAPRequest(b []byte) (*cldapRequestInfo, error) {
	tag, vs, ve, _, err := parseTLV(b, 0)
	if err != nil {
		return nil, err
	}
	if tag != berSequence {
		return nil, errors.New("amplify: CLDAP message is not a SEQUENCE")
	}
	// messageID
	tag, ivs, ive, next, err := parseTLV(b[:ve], vs)
	if err != nil || tag != berInteger {
		return nil, errCLDAPTruncated
	}
	info := &cldapRequestInfo{}
	for i := ivs; i < ive; i++ {
		info.MessageID = info.MessageID<<8 | int(b[i])
	}
	// searchRequest
	tag, svs, sve, _, err := parseTLV(b[:ve], next)
	if err != nil || tag != ldapAppSearchRequest {
		return nil, errCLDAPTruncated
	}
	// baseObject
	tag, bvs, bve, next, err := parseTLV(b[:sve], svs)
	if err != nil || tag != berOctetString {
		return nil, errCLDAPTruncated
	}
	info.BaseDN = string(b[bvs:bve])
	// skip scope, derefAliases, sizeLimit, timeLimit, typesOnly
	for i := 0; i < 5; i++ {
		if _, _, _, next, err = parseTLV(b[:sve], next); err != nil {
			return nil, err
		}
	}
	// filter: present
	tag, fvs, fve, _, err := parseTLV(b[:sve], next)
	if err != nil || tag != ldapFilterPresent {
		return nil, errCLDAPTruncated
	}
	info.Attribute = string(b[fvs:fve])
	return info, nil
}

// Vector implements Protocol.
func (cldapSearch) Vector() Vector { return CLDAP }

// BuildRequest returns a rootDSE searchRequest with a "(objectClass=*)"
// present filter — the canonical CLDAP probe (~52 bytes).
func (cldapSearch) BuildRequest(r *netutil.Rand) []byte {
	var req []byte
	req = berTLV(req, berOctetString, nil) // baseObject: rootDSE
	req = berInt(req, berEnumerated, 0)    // scope: baseObject
	req = berInt(req, berEnumerated, 0)    // derefAliases: never
	req = berInt(req, berInteger, 0)       // sizeLimit
	req = berInt(req, berInteger, 0)       // timeLimit
	req = append(req, berBoolean, 1, 0)    // typesOnly: false
	req = berTLV(req, ldapFilterPresent, []byte("objectClass"))
	req = berTLV(req, berSequence, nil) // attributes: all

	var inner []byte
	inner = berInt(inner, berInteger, 1+r.IntN(0x7f))
	inner = berTLV(inner, ldapAppSearchRequest, req)
	return berTLV(nil, berSequence, inner)
}

// BuildResponses returns a searchResEntry stuffed with directory
// attributes followed by a searchResDone, as Active Directory emits.
func (cldapSearch) BuildResponses(r *netutil.Rand, request []byte) [][]byte {
	msgID := 1
	if info, err := decodeCLDAPRequest(request); err == nil {
		msgID = info.MessageID
	}
	var attrs []byte
	attrCount := 20 + r.IntN(20)
	for i := 0; i < attrCount; i++ {
		var vals []byte
		valCount := 1 + r.IntN(4)
		for j := 0; j < valCount; j++ {
			val := make([]byte, 40+r.IntN(80))
			for k := range val {
				val[k] = byte('A' + r.IntN(26))
			}
			vals = berTLV(vals, berOctetString, val)
		}
		var attr []byte
		attr = berTLV(attr, berOctetString, []byte{byte('a' + i%26), byte('t'), byte('t'), byte('r'), byte('0' + i%10)})
		attr = berTLV(attr, berSet, vals)
		attrs = berTLV(attrs, berSequence, attr)
	}
	var entry []byte
	entry = berTLV(entry, berOctetString, nil) // objectName: rootDSE
	entry = berTLV(entry, berSequence, attrs)

	var inner []byte
	inner = berInt(inner, berInteger, msgID)
	inner = berTLV(inner, ldapAppSearchResEntry, entry)
	resEntry := berTLV(nil, berSequence, inner)

	var done []byte
	done = berInt(done, berEnumerated, 0) // resultCode: success
	done = berTLV(done, berOctetString, nil)
	done = berTLV(done, berOctetString, nil)
	var innerDone []byte
	innerDone = berInt(innerDone, berInteger, msgID)
	innerDone = berTLV(innerDone, ldapAppSearchResDone, done)
	resDone := berTLV(nil, berSequence, innerDone)

	return [][]byte{resEntry, resDone}
}

// AmplificationFactor implements Protocol.
func (cldapSearch) AmplificationFactor() float64 { return 56.9 }
