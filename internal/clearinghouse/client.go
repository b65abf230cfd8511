package clearinghouse

import (
	"context"

	"hns/internal/hrpc"
	"hns/internal/marshal"
)

// Client is an authenticated Clearinghouse client bound to one server.
type Client struct {
	c    *hrpc.Client
	b    hrpc.Binding
	cred Credentials
}

// NewClient creates a client for the Clearinghouse bound at b, presenting
// cred on every access.
func NewClient(c *hrpc.Client, b hrpc.Binding, cred Credentials) *Client {
	return &Client{c: c, b: b, cred: cred}
}

// Retrieve reads one property of an object.
func (c *Client) Retrieve(ctx context.Context, n Name, property string) ([]byte, error) {
	ret, err := c.c.Call(ctx, c.b, procRetrieveItem, marshal.StructV(
		credValue(c.cred), marshal.Str(n.String()), marshal.Str(property),
	))
	if err != nil {
		return nil, err
	}
	return ret.Items[0].AsBytes()
}

// AddItem creates or replaces a property on an object.
func (c *Client) AddItem(ctx context.Context, n Name, property string, value []byte) error {
	return c.addItem(ctx, n, property, value, false)
}

func (c *Client) addItem(ctx context.Context, n Name, property string, value []byte, replicated bool) error {
	_, err := c.c.Call(ctx, c.b, procAddItem, marshal.StructV(
		credValue(c.cred), marshal.Str(n.String()), marshal.Str(property),
		marshal.BytesV(value), marshal.BoolV(replicated),
	))
	return err
}

func (c *Client) deleteItem(ctx context.Context, n Name, property string, replicated bool) error {
	_, err := c.c.Call(ctx, c.b, procDeleteItem, marshal.StructV(
		credValue(c.cred), marshal.Str(n.String()), marshal.Str(property),
		marshal.BoolV(replicated),
	))
	return err
}

func (c *Client) deleteObject(ctx context.Context, n Name, replicated bool) error {
	_, err := c.c.Call(ctx, c.b, procDeleteObject, marshal.StructV(
		credValue(c.cred), marshal.Str(n.String()), marshal.BoolV(replicated),
	))
	return err
}
