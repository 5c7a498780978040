#include "core/partition_producer.h"

#include "io/async_reader.h"

namespace presto {

PartitionProducer::PartitionProducer(ThreadPool* decode_pool,
                                     IoRing* io_ring)
{
    bind(decode_pool, io_ring);
}

PartitionProducer::~PartitionProducer() = default;

void
PartitionProducer::bind(ThreadPool* decode_pool, IoRing* io_ring)
{
    reader_.setThreadPool(decode_pool);
    ring_ = io_ring;
    if (io_ring == nullptr)
        return;
    if (async_ == nullptr)
        async_ = std::make_unique<AsyncPartitionReader>(*io_ring);
    else
        async_->setRing(*io_ring);
    async_->setDecodePool(decode_pool);
}

Status
PartitionProducer::produce(PartitionStore& store, uint64_t partition_id,
                           RowBatch& out)
{
    stats_ = {};
    Status st;
    while (stats_.attempts < kMaxFetchAttempts) {
        st = readOnce(store, partition_id, stats_.attempts++, out);
        if (st.code() == StatusCode::kUnavailable)
            ++stats_.transient_errors;
        else if (st.code() == StatusCode::kCorruption)
            ++stats_.corrupt_refetches;
        else
            return st;
    }
    return st;  // the last attempt's error, retry budget spent
}

Status
PartitionProducer::readOnce(PartitionStore& store, uint64_t partition_id,
                            uint64_t attempt, RowBatch& out)
{
    if (ring_ == nullptr) {
        auto encoded =
            store.fetchShared(partition_id, attempt, &stats_.hot_tier_hit);
        if (!encoded.ok())
            return encoded.status();
        stats_.raw_bytes = (*encoded)->size();
        Status st = reader_.open(**encoded);
        if (st.ok())
            st = reader_.readAllInto(out);
        stats_.bytes_touched = reader_.bytesTouched();
        return st;
    }
    // Over the ring, faults act on individual in-flight page reads:
    // transient errors retry inside the ring, and a CRC-caught flip
    // re-reads just that page. A corrupt segment is quarantined by the
    // store, so the next attempt re-commits the partition's bytes.
    if (store.isRetired(partition_id)) {
        return Status::notFound("partition " +
                                std::to_string(partition_id) +
                                " is retired");
    }
    Status st;
    if (SegmentStore* segments = store.segmentStore(); segments != nullptr) {
        auto sid = store.persistPartition(partition_id);
        if (!sid.ok())
            return sid.status();
        st = segments->readSegment(*sid, *async_, out);
        stats_.raw_bytes = async_->reader().totalDataBytes();
    } else {
        const PartitionBuffer encoded = store.partition(partition_id);
        st = async_->read(*encoded, partition_id, out);
        stats_.raw_bytes = encoded->size();
    }
    const AsyncReadStats& rs = async_->lastReadStats();
    stats_.bytes_touched = async_->reader().bytesTouched();
    stats_.transient_errors += rs.device_retries;
    stats_.corrupt_refetches += rs.corrupt_page_rereads;
    return st;
}

}  // namespace presto
