package fixture

import "flick/rt"

type session struct {
	dec *rt.Decoder
	enc *rt.Encoder
}

var globalDec *rt.Decoder

func escapeToField(s *session, c *rt.Client) error {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return err
	}
	s.dec = d // want `pooled \*rt\.Decoder stored into a field or global`
	d.Release()
	return nil
}

func escapeToGlobal(c *rt.Client) error {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return err
	}
	globalDec = d // want `pooled \*rt\.Decoder stored into a field or global`
	d.Release()
	return nil
}

func escapeToComposite(c *rt.Client) (*session, error) {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return nil, err
	}
	s := &session{dec: d} // want `pooled \*rt\.Decoder stored into a composite value`
	d.Release()
	return s, nil
}

// ok: clearing the slot is how handoff protocols retire a decoder.
func clearSlot(s *session) {
	s.dec = nil
}

// ok: local variables don't outlive the call.
func localOnly(c *rt.Client) error {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return err
	}
	alias := d
	_ = alias
	d.Release()
	return nil
}

// ok: a sanctioned handoff suppresses the finding.
func sanctionedHandoff(s *session, d *rt.Decoder) {
	s.dec = d //lint:allow poolescape
}
