#include "boot/bootloader.hpp"

#include <algorithm>

namespace upkit::boot {

void Bootloader::charge_cpu(double seconds) {
    const double scaled = seconds * platform_->cpu_scale();
    if (clock_ != nullptr) clock_->advance(scaled);
    if (meter_ != nullptr) {
        const double hsm_ma = verifier_->backend().costs().active_current_ma;
        if (hsm_ma > 0) {
            meter_->charge(sim::Component::kHsm, scaled, hsm_ma);
        } else {
            meter_->charge(sim::Component::kCpu, scaled);
        }
    }
}

std::optional<Bootloader::Candidate> Bootloader::read_candidate(std::uint32_t slot_id) const {
    const slots::SlotConfig* config = slots_->slot(slot_id);
    if (config == nullptr) return std::nullopt;
    Bytes header(suit::kSuitHeaderRegion);
    if (config->device->read(config->offset, MutByteSpan(header)) != Status::kOk) {
        return std::nullopt;
    }

    // Chunked native manifests are variable-length: the chunk table can
    // extend past the fixed probe region, so learn the true wire size from
    // the prefix and re-read the full header before parsing.
    if (auto hinted = manifest::wire_size_hint(header)) {
        if (*hinted > header.size() && *hinted <= config->size) {
            header.resize(*hinted);
            if (config->device->read(config->offset, MutByteSpan(header)) != Status::kOk) {
                return std::nullopt;
            }
        }
    }

    Candidate candidate;
    candidate.slot_id = slot_id;
    if (auto native = manifest::parse_manifest(header)) {
        candidate.manifest = *native;
        candidate.firmware_offset = manifest::wire_size(*native);
        return candidate;
    }
    // SUIT-encoded header region (interop mode).
    if (auto envelope = suit::parse_envelope_prefix(header)) {
        if (auto converted = suit::to_manifest(*envelope)) {
            candidate.manifest = *converted;
            candidate.firmware_offset = suit::kSuitHeaderRegion;
            candidate.envelope = std::move(*envelope);
            return candidate;
        }
    }
    return std::nullopt;
}

Status Bootloader::verify_slot_image(const Candidate& candidate, Bytes& scratch) {
    const slots::SlotConfig* slot = slots_->slot(candidate.slot_id);
    const manifest::Manifest& m = candidate.manifest;

    if (m.app_id != config_.identity.app_id) return Status::kBadAppId;
    if (m.link_offset != slots::kAnyLinkOffset && m.link_offset != slot->link_offset) {
        return Status::kBadLinkOffset;
    }
    if (candidate.firmware_offset + static_cast<std::uint64_t>(m.firmware_size) >
        slot->size) {
        return Status::kSlotTooSmall;
    }

    // Both ECDSA verifications, over whichever TBS encoding the image used,
    // priced as two verifies.
    charge_cpu(crypto::double_verify_seconds(verifier_->backend().costs()));
    if (candidate.envelope) {
        UPKIT_RETURN_IF_ERROR(verifier_->verify_suit_envelope(*candidate.envelope));
    } else {
        UPKIT_RETURN_IF_ERROR(verifier_->verify_signatures(m));
    }

    // Digest, streamed from flash in sector-sized reads through the boot's
    // shared scratch buffer (grown, never shrunk, across candidates).
    crypto::Sha256 hasher;
    const std::uint32_t chunk = slot->device->geometry().sector_bytes;
    if (scratch.size() < chunk) scratch.resize(chunk);
    std::uint64_t remaining = m.firmware_size;
    std::uint64_t offset = slot->offset + candidate.firmware_offset;
    while (remaining > 0) {
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(chunk, remaining));
        UPKIT_RETURN_IF_ERROR(slot->device->read(offset, MutByteSpan(scratch.data(), take)));
        hasher.update(ByteSpan(scratch.data(), take));
        offset += take;
        remaining -= take;
    }
    charge_cpu(verifier_->backend().costs().sha256_seconds_per_kb *
               static_cast<double>(m.firmware_size) / 1024.0);
    return verifier_->verify_firmware_digest(m, hasher.finalize());
}

Expected<BootReport> Bootloader::boot() {
    verification_seconds_ = 0.0;
    loading_seconds_ = 0.0;
    charge_cpu(config_.reboot_seconds);  // MCU reset + init

    BootReport report;

    // Crash recovery first: a power cut mid-swap leaves both slots partial;
    // the journal knows the last durable step and the swap is completed
    // before any image is examined. A second cut in here simply repeats
    // this on the next boot.
    {
        const double load_start = clock_ != nullptr ? clock_->now() : 0.0;
        auto resumed = slots_->resume_swap();
        if (clock_ != nullptr) loading_seconds_ += clock_->now() - load_start;
        if (!resumed) return resumed.status();
        report.resumed_interrupted_swap = *resumed;
    }

    // Trial revert next: the previous boot armed a trial that was never
    // confirmed — whatever ended that boot (watchdog at window expiry,
    // crash, power cycle), the unconfirmed image must not run again. Drop
    // it before slot selection so the previous image boots below.
    if (config_.trial_boot && trial_.state == agent::TrialState::kArmed) {
        if (slots_->invalidate(trial_.slot) == Status::kFlashPowerLoss) {
            return Status::kFlashPowerLoss;
        }
        report.invalidated.push_back(trial_.slot);
        report.rolled_back = true;
        trial_.state = agent::TrialState::kRolledBack;
    }

    // Gather parseable images from every slot we know about.
    std::vector<Candidate> candidates;
    for (const std::uint32_t id : config_.bootable_slots) {
        if (auto c = read_candidate(id)) candidates.push_back(std::move(*c));
    }
    if (config_.staging_slot) {
        if (auto c = read_candidate(*config_.staging_slot)) {
            candidates.push_back(std::move(*c));
        }
    }
    // Newest first; bootable slots win ties (no pointless install).
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.manifest.version > b.manifest.version;
                     });

    // One sector-sized digest buffer shared by every candidate this boot
    // scans (a real bootloader reuses one static buffer, and malloc churn
    // per candidate would be pure waste).
    Bytes scratch;
    for (const Candidate& candidate : candidates) {
        const double verify_start = clock_ != nullptr ? clock_->now() : 0.0;
        const Status verdict = verify_slot_image(candidate, scratch);
        if (clock_ != nullptr) verification_seconds_ += clock_->now() - verify_start;

        if (verdict == Status::kFlashPowerLoss) {
            // The flash died mid-verification: this is not a bad image, the
            // MCU is browning out. Report it so the next reset retries —
            // and do NOT invalidate a slot we could not even read.
            return verdict;
        }
        if (verdict != Status::kOk) {
            // Rollback: drop the bad image and fall through to the next.
            if (slots_->invalidate(candidate.slot_id) == Status::kFlashPowerLoss) {
                return Status::kFlashPowerLoss;
            }
            report.invalidated.push_back(candidate.slot_id);
            continue;
        }

        const double load_start = clock_ != nullptr ? clock_->now() : 0.0;
        const bool is_bootable =
            std::find(config_.bootable_slots.begin(), config_.bootable_slots.end(),
                      candidate.slot_id) != config_.bootable_slots.end();
        std::uint32_t boot_slot = candidate.slot_id;

        if (!is_bootable) {
            // Static mode: swap the staged image into the bootable slot so
            // the previous image survives as the rollback target.
            boot_slot = config_.bootable_slots.front();
            std::uint64_t used =
                candidate.firmware_offset + candidate.manifest.firmware_size;
            if (const auto old = read_candidate(boot_slot)) {
                used = std::max<std::uint64_t>(
                    used, old->firmware_offset + old->manifest.firmware_size);
            }
            const Status swapped = slots_->swap(candidate.slot_id, boot_slot, used);
            if (swapped != Status::kOk) {
                if (clock_ != nullptr) loading_seconds_ += clock_->now() - load_start;
                return swapped;
            }
            report.installed_from_staging = true;
        }

        // "Jump": transfer of control to the application image.
        charge_cpu(0.001);
        if (clock_ != nullptr) loading_seconds_ += clock_->now() - load_start;

        if (config_.trial_boot) {
            if (confirmed_version_ == 0) {
                // First ever boot: the factory image is trusted implicitly
                // (there is nothing to roll back to).
                confirmed_version_ = candidate.manifest.version;
                trial_.state = agent::TrialState::kNone;
            } else if (candidate.manifest.version != confirmed_version_) {
                trial_ = TrialRecord{
                    .state = agent::TrialState::kArmed,
                    .version = candidate.manifest.version,
                    .slot = boot_slot,
                    .deadline_s = (clock_ != nullptr ? clock_->now() : 0.0) +
                                  config_.confirm_window_s};
                report.trial_boot = true;
            } else if (trial_.state != agent::TrialState::kRolledBack) {
                trial_.state = agent::TrialState::kNone;
            }
        }

        report.booted_slot = boot_slot;
        report.booted = candidate.manifest;
        report.verification_seconds = verification_seconds_;
        report.loading_seconds = loading_seconds_;
        return report;
    }
    // Distinguish "no valid image anywhere" (a true brick: device stays in
    // ROM) from "the flash lost power while we were scanning": unreadable
    // slots come back after the next reset.
    for (const std::uint32_t id : config_.bootable_slots) {
        const slots::SlotConfig* slot = slots_->slot(id);
        std::uint8_t probe = 0;
        if (slot != nullptr && slot->device->read(slot->offset, MutByteSpan(&probe, 1)) ==
                                   Status::kFlashPowerLoss) {
            return Status::kFlashPowerLoss;
        }
    }
    return Status::kNotFound;  // nothing valid anywhere: device stays in ROM
}

Status Bootloader::confirm_boot() {
    if (trial_.state != agent::TrialState::kArmed) return Status::kFailedPrecondition;
    if (clock_ != nullptr && clock_->now() > trial_.deadline_s) {
        // Too late: the watchdog window has already closed. The trial stays
        // armed so the revert still happens at the next boot.
        return Status::kTimeout;
    }
    trial_.state = agent::TrialState::kConfirmed;
    confirmed_version_ = trial_.version;
    return Status::kOk;
}

}  // namespace upkit::boot
