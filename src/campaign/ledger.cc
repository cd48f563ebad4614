#include "campaign/ledger.hh"

namespace dejavuzz::campaign {

bool
BugLedger::record(const core::BugReport &report, unsigned worker,
                  uint64_t epoch, const core::TestCase &repro,
                  const std::string &config,
                  const std::string &variant)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    auto [it, inserted] = records_.try_emplace(report.key());
    if (inserted) {
        it->second.report = report;
        it->second.worker = worker;
        it->second.epoch = epoch;
        it->second.hits = 1;
        it->second.repro = repro;
        it->second.config = config;
        it->second.variant = variant;
        return true;
    }
    ++it->second.hits;
    return false;
}

void
BugLedger::restore(std::vector<BugRecord> records)
{
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    total_ = 0;
    for (BugRecord &record : records) {
        const uint64_t hits = record.hits;
        std::string key = record.report.key();
        // First record wins on a duplicate signature (the snapshot
        // loader rejects duplicates; this keeps total_ equal to the
        // stored records' hit sum even for hand-built inputs).
        auto [it, inserted] =
            records_.try_emplace(std::move(key), std::move(record));
        (void)it;
        if (inserted)
            total_ += hits;
    }
}

size_t
BugLedger::distinct() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
}

uint64_t
BugLedger::totalReports() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

std::vector<BugRecord>
BugLedger::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<BugRecord> out;
    out.reserve(records_.size());
    for (const auto &[key, record] : records_)
        out.push_back(record);
    return out;
}

std::vector<std::string>
BugLedger::keys() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(records_.size());
    for (const auto &[key, record] : records_)
        out.push_back(key);
    return out;
}

} // namespace dejavuzz::campaign
