#include "lab/tracecache.hpp"

#include <filesystem>

#include "lab/store.hpp"

namespace vepro::lab
{

namespace fs = std::filesystem;

TraceCache::TraceCache(std::string dir, Progress *progress)
    : dir_(std::move(dir)), progress_(progress)
{
}

std::string
TraceCache::pathFor(const JobSpec &spec) const
{
    return (fs::path(dir_) / (spec.traceHashHex() + ".vetf")).string();
}

TraceCache::Lease
TraceCache::begin(const JobSpec &spec)
{
    Lease lease;
    lease.key = spec.traceHashHex();
    lease.path = pathFor(spec);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return inflight_.count(lease.key) == 0; });
        inflight_.insert(lease.key);
    }
    lease.active = true;
    std::error_code ec;
    if (fs::exists(lease.path, ec)) {
        lease.hit = true;
    } else {
        fs::create_directories(dir_, ec);
        lease.tmpPath = uniqueTmpPath(lease.path);
    }
    return lease;
}

void
TraceCache::recapture(Lease &lease, const std::string &error)
{
    if (!lease.active || !lease.hit) {
        throw std::logic_error("lab: recapture() needs an active hit lease");
    }
    warnCorruptEntry(progress_, lease.path, error);
    std::error_code ec;
    fs::remove(lease.path, ec);  // Best effort; capture overwrites anyway.
    fs::create_directories(dir_, ec);
    lease.hit = false;
    lease.tmpPath = uniqueTmpPath(lease.path);
}

void
TraceCache::commit(Lease &lease)
{
    if (!lease.active) {
        return;
    }
    if (!lease.hit) {
        // Atomic publish, like the result store: a concurrent reader
        // (another process sharing the store) sees either no trace or
        // a complete sealed one, never a partial file.
        fs::rename(lease.tmpPath, lease.path);
    }
    release(lease);
}

void
TraceCache::abort(Lease &lease)
{
    if (!lease.active) {
        return;
    }
    if (!lease.hit && !lease.tmpPath.empty()) {
        std::error_code ec;
        fs::remove(lease.tmpPath, ec);  // Best effort cleanup.
    }
    release(lease);
}

void
TraceCache::release(Lease &lease)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(lease.key);
    }
    cv_.notify_all();
    lease.active = false;
    lease.tmpPath.clear();
}

} // namespace vepro::lab
