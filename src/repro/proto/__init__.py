"""Binary flattening of GraphFeatures — the paper's "protobuf strings".

GraphFlat stores each k-hop neighborhood as a compact, self-contained byte
string on the distributed file system (§3.2.1 "Storing").  Protobuf itself is
not available offline, so this package implements an equivalent wire format
from scratch: varint-coded headers + raw little-endian tensors for one
record (``codec``), the columnar ``AGLC`` shard that stores many of them on
the DFS (``columnar``), and the checksummed frames of the shuffle's run
files (``framing``).
"""

from repro.proto.varint import (
    decode_signed,
    decode_unsigned,
    encode_signed,
    encode_unsigned,
)
from repro.proto.codec import (
    CodecError,
    decode_graph_feature,
    decode_prediction,
    decode_sample,
    encode_graph_feature,
    encode_prediction,
    encode_sample,
)
from repro.proto.columnar import (
    ColumnarShard,
    shard_record_count,
    write_prediction_shard,
    write_sample_shard,
)
from repro.proto.framing import (
    FrameCorruptionError,
    decode_value,
    encode_value,
    iter_frames,
    read_stream_header,
    register_record,
    write_frame,
    write_stream_header,
)

__all__ = [
    "encode_unsigned",
    "decode_unsigned",
    "encode_signed",
    "decode_signed",
    "encode_graph_feature",
    "decode_graph_feature",
    "encode_sample",
    "decode_sample",
    "encode_prediction",
    "decode_prediction",
    "CodecError",
    "ColumnarShard",
    "shard_record_count",
    "write_prediction_shard",
    "write_sample_shard",
    "FrameCorruptionError",
    "encode_value",
    "decode_value",
    "register_record",
    "iter_frames",
    "write_frame",
    "write_stream_header",
    "read_stream_header",
]
